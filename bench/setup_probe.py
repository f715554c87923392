"""Set-up cost of one workload, timed in a fresh interpreter.

Run as ``python3 bench/setup_probe.py <workload> [table.csv]`` with the
checkout's ``src`` on PYTHONPATH.  It times ``import fermirw.cli`` and then
the construction of the workload's cosmologies, and prints both times as a
JSON pair on standard output.  ``build_cosmologies`` is also what the
benchmark process itself uses, so set-up and run build the same models.
"""

from __future__ import annotations

import json
import sys
import time


def build_cosmologies(workload: str, table_path: str | None = None) -> dict:
    """Model name -> Cosmology for one workload, built as the CLI builds it."""
    from fermirw import (Cosmology, load_table, make_exponential,
                         make_power_law, make_tabulated)
    if workload == "sweep-analytic":
        return {"matter": Cosmology(make_power_law(2.0 / 3.0), k=0,
                                    name="matter"),
                "de-sitter": Cosmology(make_exponential(1.0), k=0,
                                       name="de-sitter")}
    if workload == "sweep-tabulated":
        return {"tabulated": Cosmology(make_tabulated(load_table(table_path)),
                                       k=0, name="tabulated")}
    if workload == "scattered-events":
        return {"milne": Cosmology(make_power_law(1.0), k=-1, name="milne"),
                "radiation": Cosmology(make_power_law(0.5), k=0,
                                       name="radiation"),
                "matter": Cosmology(make_power_law(2.0 / 3.0), k=0,
                                    name="matter"),
                "de-sitter": Cosmology(make_exponential(1.0), k=0,
                                       name="de-sitter")}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    import fermirw.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    build_cosmologies(argv[0], argv[1] if len(argv) > 1 else None)
    t2 = time.perf_counter()
    print(json.dumps([t1 - t0, t2 - t1]))


if __name__ == "__main__":
    main(sys.argv[1:])
