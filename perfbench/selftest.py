"""Self-test: the benchmark counts a wrong Q[P] answer as failed.

    python3 perfbench/selftest.py

Runs small instances of ``tpch-disk`` and ``crimes-stream-mem`` three
ways: unchanged (no failures expected), and with ``apply_sketches``
replaced by a rewrite that empties every sketch, so ``Q[P]`` filters on
``FALSE`` (every sketched answer must then be counted in ``failed``).
The file is not named ``test_*`` so a bare ``pytest`` never collects it;
it starts Spark several times and takes a minute or two.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402


def _empty_sketches(real):
    from repro.core.sketch import ProvenanceSketch

    def apply_sketches(q, sketches, **kw):
        empty = {r: ProvenanceSketch(s.partition, frozenset()) for r, s in sketches.items()}
        return real(q, empty, **kw)

    return apply_sketches


def _run(name: str, make, *, wrong: bool) -> dict:
    import repro.core.selftune as selftune_mod
    import repro.core.use as use_mod

    saved = (use_mod.apply_sketches, selftune_mod.apply_sketches)
    if wrong:
        use_mod.apply_sketches = _empty_sketches(saved[0])
        selftune_mod.apply_sketches = _empty_sketches(saved[1])
    try:
        return bench.run(name, seed=7, seconds=2, trace=False, make=make)["result"]
    finally:
        use_mod.apply_sketches, selftune_mod.apply_sketches = saved


def main() -> int:
    from workloads import CrimesStreamMem, TpchDisk

    cases = (
        ("tpch-disk", lambda: TpchDisk(sf=0.002), False),
        ("tpch-disk", lambda: TpchDisk(sf=0.002), True),
        ("crimes-stream-mem", lambda: CrimesStreamMem(sf=0.002), True),
    )
    ok = True
    for name, make, wrong in cases:
        res = _run(name, make, wrong=wrong)
        expect_failures = wrong
        good = (res["failed"] > 0) == expect_failures and res["correct"] != expect_failures
        ok &= good
        label = "empty-sketch Q[P]" if wrong else "unchanged"
        print(
            f"{'ok  ' if good else 'FAIL'} {name} {label}: "
            f"failed {res['failed']} of {res['attempted']}, correct={res['correct']}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
