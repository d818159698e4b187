#!/usr/bin/env python3
"""Hold every scenario report to its committed SHA-256 digest.

Runs each scenarios/*.scn through `faultroute scenario --quick` (JSON
lines), removes the header's `provenance` object (build metadata, the one
part of a report that may differ between builds), and compares the SHA-256
of what is left with the digest recorded in scenarios/golden.txt. A change
meant to keep behaviour turns "every report byte-identical" into this check;
a change meant to alter results re-records the digests with --update and
says why in its description.

Usage:
  python3 scripts/check_golden_reports.py [--binary build/faultroute]
  python3 scripts/check_golden_reports.py --update

Exit status: 0 all digests match (or --update wrote them), 1 a digest is
missing, stale or different, 2 a run failed or a report is malformed.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = SCENARIOS / "golden.txt"
PROVENANCE_KEY = '"provenance":'


class ReportError(Exception):
    """A run that failed or a report without the expected header."""


def strip_provenance(report: str) -> str:
    """The report with the header line's provenance object (and its
    trailing comma) cut out; every other byte is kept as written."""
    header, newline, rest = report.partition("\n")
    try:
        if json.loads(header).get("type") != "header":
            raise ReportError("first line is not the report header")
    except json.JSONDecodeError as err:
        raise ReportError(f"header is not JSON: {err}") from err
    at = header.find(PROVENANCE_KEY)
    if at < 0:
        raise ReportError("header has no provenance object")
    _, end = json.JSONDecoder().raw_decode(header, at + len(PROVENANCE_KEY))
    if header[end:end + 1] == ",":
        end += 1
    return header[:at] + header[end:] + newline + rest


def report_digest(binary: pathlib.Path, spec: pathlib.Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.jsonl"
        run = subprocess.run(
            [str(binary), "scenario", str(spec), "--quick", "--out", str(out)],
            capture_output=True, text=True, check=False)
        if run.returncode != 0:
            raise ReportError(f"faultroute exited {run.returncode}: {run.stderr.strip()}")
        text = out.read_text(encoding="utf-8")
    return hashlib.sha256(strip_provenance(text).encode("utf-8")).hexdigest()


def read_golden(path: pathlib.Path) -> dict:
    digests = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            digest, name = line.split()
            digests[name] = digest
    return digests


def write_golden(path: pathlib.Path, digests: dict) -> None:
    lines = ["# SHA-256 of each scenario's --quick JSON-lines report, header provenance",
             "# removed. Regenerate: python3 scripts/check_golden_reports.py --update"]
    lines += [f"{digest}  {name}" for name, digest in sorted(digests.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", type=pathlib.Path, default=ROOT / "build" / "faultroute",
                        help="the faultroute CLI to run (default: build/faultroute)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite scenarios/golden.txt from this build")
    args = parser.parse_args()

    specs = sorted(SCENARIOS.glob("*.scn"))
    digests = {}
    for spec in specs:
        try:
            digests[spec.name] = report_digest(args.binary, spec)
        except (OSError, ReportError) as err:
            print(f"{spec.name}: {err}", file=sys.stderr)
            return 2
    if args.update:
        write_golden(GOLDEN, digests)
        print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}")
        return 0

    golden = read_golden(GOLDEN) if GOLDEN.is_file() else {}
    failures = []
    for name, digest in digests.items():
        want = golden.get(name)
        if want is None:
            failures.append(f"{name}: no digest in golden.txt")
        elif want != digest:
            failures.append(f"{name}: report digest {digest} != golden {want}")
        else:
            print(f"ok  {name}")
    failures += [f"{name}: in golden.txt but no such scenario"
                 for name in sorted(set(golden) - set(digests))]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
