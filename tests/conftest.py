import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=stress` draws 20,000 examples in the Java
# front end's property tests that read the profile's max_examples
# (tests/test_javasrc_oracle.py, tests/test_javasrc.py); the rest keep
# their own counts.
settings.register_profile("stress", max_examples=20_000)


@pytest.fixture
def make_project(tmp_path):
    """Write a dict of rel-path -> content under tmp_path, return the root."""

    def build(files):
        for rel, content in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        return tmp_path

    return build
