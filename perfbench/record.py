#!/usr/bin/env python3
"""Record the program's verdicts for every cell the benchmark can issue.

Writes expected.json next to this file: for each check workload, the
verdict (see checks.verdict_of) of each of its cells, keyed
"g,s"; for scan-grid, one verdict letter per cell of the grid.  The
int/str digit limit is lifted while recording verdicts, so cells whose
certificate text crashes at the default limit still get their true verdict.
Under "known_crashes", each check workload lists the cells whose ``check``
call crashes when run as the benchmark runs it, at the default limit; a
crash of any other cell makes a run incorrect.

Run from the repository root, only when the certificates are meant to
change:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json

import checks
import workloads
from run import call_cli, import_program


def main() -> int:
    cli = import_program()["cli"]

    def payload(g: int, s: int) -> dict:
        return cli.certificate_to_dict(cli.build_certificate(g, s))

    expected: dict = {}
    known_crashes: dict[str, list[str]] = {}
    for name, spec in workloads.CHECK_SPECS.items():
        argv = {call.cells[0]: list(call.argv) for call in workloads.make_workload(name, 0).calls}
        known_crashes[name] = [f"{g},{s}" for g, s in workloads.check_cells(spec)
                               if call_cli(cli, argv[g, s])[0] not in (0, 1)]
    with checks.unlimited_int_digits():
        for name, spec in workloads.CHECK_SPECS.items():
            cells = workloads.check_cells(spec)
            expected[name] = {f"{g},{s}": checks.verdict_of(payload(g, s)) for g, s in cells}
        g_lo, g_hi = workloads.SCAN_G_MIN, workloads.SCAN_G_MAX
        expected["scan-grid"] = {"g_min": g_lo, "rows": [
            "".join(checks.scan_letter(payload(g, s))
                    for s in range(workloads.S_MIN, workloads.S_MAX + 1))
            for g in range(g_lo, g_hi + 1)]}
    # One cell or grid row per line, so that a re-recording diffs by cell.
    parts = [f"{json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(verdict)}" for key, verdict in expected[name].items())
        + "\n}" for name in workloads.CHECK_SPECS]
    parts.append(f'"scan-grid": {{"g_min": {g_lo}, "rows": [\n'
                 + ",\n".join(f"  {json.dumps(row)}" for row in expected["scan-grid"]["rows"])
                 + "\n]}")
    parts.append('"known_crashes": {\n' + ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(cells)}" for name, cells in known_crashes.items())
        + "\n}")
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
