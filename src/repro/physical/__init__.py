"""Physical-design substrate.

PBDS's payoff comes from translating sketches into selection
conditions that existing physical design can serve (paper Sec. 8).
Here the physical design artifacts are:

* ``storage``  — Parquet tables clustered on the sketch attribute;
  Catalyst pushes the sketch filters into the scan and the Parquet
  reader prunes row groups with their min/max statistics, the
  zone-map / BRIN skipping of the paper. ``scan_report`` reads the
  pushed filters and the rows and files actually scanned from the
  executed plan;
* ``stats``    — min/max table statistics, standing in for the DBMS
  statistics the paper reads.
"""
