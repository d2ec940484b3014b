import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=stress` draws about 20,000 examples for the
# front-end oracle's generated sources (tests/test_javasrc_oracle.py).
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
