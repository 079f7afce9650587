"""PBDS core — the paper's contribution.

* ``ranges``   — range partitions F_{R,a} (Def. 2) from equi-depth stats
* ``sketch``   — provenance sketches (Def. 3)
* ``capture``  — instrumentation rules r0..r7 (Fig. 6)
* ``use``      — Q[P] rewrite + adjacent-range merging (Sec. 8)
* ``safety``   — gc(Q, X) inference (Fig. 3, Sec. 5)
* ``reuse``    — ge/uconds inference for parameterized queries (Fig. 4)
* ``selftune`` — eager/adaptive strategies + amortization (Sec. 9.5)
"""
