"""bench/gen.py's workload generator, for tests that build its projects."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One bench/gen.py project per workload, generated from this seed.
BENCH_SEED = 7


def load_bench_gen():
    """bench/gen.py, imported from its file; it is only read."""
    if "bench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_gen"] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["bench_gen"]


def write_workload(workload, root):
    """Write the workload's project for BENCH_SEED under root."""
    gen = load_bench_gen()
    files, _ = gen.generate(workload, BENCH_SEED)
    gen.write_tree(files, root)
    return root
