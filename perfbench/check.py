"""Output checks for benchmark runs of ``statindep independence``.

Every run must exit 0 and report, in ``<basename>_report.json``, an
``independent`` schedule verdict, every kappa tested with an ``independent``
rectangle verdict, and agreement.  When reference outputs exist for the
workload seed (seed 0, recorded from the seed commit), the outputs must also
match them: strings, booleans, list lengths and key order exactly;
rectangle densities (exact counts divided by a checkpoint) exactly; every
other number within ``FLOAT_TOL`` absolute, which keeps integers exact.
Files that are byte-identical to the recorded ones are counted; a file that
is not byte-identical but matches within tolerance is not a failure.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import os

FLOAT_TOL = 1e-12
EXACT_KEYS = {"density"}
SUFFIXES = ("_report.json", "_gaps.csv", "_rectangles.csv")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def output_names(basename: str) -> list[str]:
    return [basename + suffix for suffix in SUFFIXES]


def read_outputs(out_dir: str, basename: str) -> dict[str, bytes]:
    """The CLI's output files; a missing file is simply absent."""
    files = {}
    for name in output_names(basename):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    """{workload: {seed: {file name: sha256}}} recorded from the seed commit."""
    with open(os.path.join(REFERENCE_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str, seed: int) -> dict[str, bytes] | None:
    """Recorded output files of ``workload`` at ``seed``, or None."""
    folder = os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}")
    if not os.path.isdir(folder):
        return None
    files = {}
    for entry in sorted(os.listdir(folder)):
        with gzip.open(os.path.join(folder, entry), "rb") as fh:
            files[entry.removesuffix(".gz")] = fh.read()
    return files


def _numbers_match(key: str, ref: float, new: float) -> bool:
    if key in EXACT_KEYS:
        return ref == new
    return abs(ref - new) <= FLOAT_TOL


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_json(ref, new, path: str = "$", key: str = "") -> list[str]:
    """Differences between two parsed JSON documents under the rules above."""
    if _is_number(ref) and _is_number(new):
        return [] if _numbers_match(key, ref, new) else \
            [f"{path}: {new!r} != reference {ref!r}"]
    if type(ref) is not type(new):
        return [f"{path}: {type(new).__name__} != reference {type(ref).__name__}"]
    if isinstance(ref, dict):
        if list(ref) != list(new):
            return [f"{path}: keys {list(new)} != reference {list(ref)}"]
        return [d for k in ref for d in compare_json(ref[k], new[k], f"{path}.{k}", k)]
    if isinstance(ref, list):
        if len(ref) != len(new):
            return [f"{path}: length {len(new)} != reference {len(ref)}"]
        return [d for i, (r, n) in enumerate(zip(ref, new))
                for d in compare_json(r, n, f"{path}[{i}]", key)]
    return [] if ref == new else [f"{path}: {new!r} != reference {ref!r}"]


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(ref: str, new: str, name: str) -> list[str]:
    """Differences between two CSV tables; numeric cells by column rules."""
    ref_rows = list(csv.reader(io.StringIO(ref)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(ref_rows) != len(new_rows) or not ref_rows:
        return [f"{name}: {len(new_rows)} rows != reference {len(ref_rows)}"]
    header = ref_rows[0]
    if new_rows[0] != header:
        return [f"{name}: header {new_rows[0]} != reference {header}"]
    diffs = []
    for i, (r_row, n_row) in enumerate(zip(ref_rows[1:], new_rows[1:]), start=2):
        if len(r_row) != len(n_row):
            diffs.append(f"{name}:{i}: {len(n_row)} cells != reference {len(r_row)}")
            continue
        for col, r_cell, n_cell in zip(header, r_row, n_row):
            r_num, n_num = _as_float(r_cell), _as_float(n_cell)
            if r_num is not None and n_num is not None:
                ok = _numbers_match(col, r_num, n_num)
            else:
                ok = r_cell == n_cell
            if not ok:
                diffs.append(f"{name}:{i} {col}: {n_cell} != reference {r_cell}")
    return diffs


def compare_outputs(reference: dict[str, bytes],
                    outputs: dict[str, bytes]) -> list[str]:
    """Differences between a run's output files and the recorded ones."""
    diffs = []
    for name, ref in reference.items():
        new = outputs.get(name)
        if new is None:
            diffs.append(f"{name}: missing")
        elif new == ref:
            continue
        elif name.endswith(".json"):
            diffs.extend(f"{name} {d}" for d in
                         compare_json(json.loads(ref), json.loads(new)))
        else:
            diffs.extend(compare_csv(ref.decode(), new.decode(), name))
    return diffs


def check_verdicts(report: dict) -> list[str]:
    """The expected verdicts of an independent input, from the JSON report."""
    problems = []
    if report.get("statind", {}).get("verdict") != "independent":
        problems.append("schedule verdict is not independent")
    outcomes = report.get("kappa_outcomes") or []
    if not outcomes:
        problems.append("no kappa outcomes")
    for o in outcomes:
        verdict = (o.get("rectangle") or {}).get("verdict")
        if not o.get("tested") or verdict != "independent":
            problems.append(f"kappa {o.get('kappa')}: tested={o.get('tested')}, "
                            f"rectangle verdict {verdict}")
    if report.get("agreement") is not True:
        problems.append("verdicts disagree")
    return problems


def check_run(exit_code: int, outputs: dict[str, bytes], basename: str,
              reference: dict[str, bytes] | None) -> list[str]:
    """Every reason a run's result is wrong; empty when it is correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    report_name = basename + "_report.json"
    missing = [n for n in output_names(basename) if n not in outputs]
    if missing:
        return problems + [f"missing outputs {missing}"]
    try:
        report = json.loads(outputs[report_name])
    except ValueError as exc:
        return problems + [f"{report_name} is not JSON: {exc}"]
    problems += check_verdicts(report)
    if reference is not None:
        problems += compare_outputs(reference, outputs)
    return problems


def identical_files(outputs: dict[str, bytes], digests: dict[str, str]) -> int:
    """How many output files are byte-identical to the recorded ones."""
    return sum(1 for name, data in outputs.items()
               if digests.get(name) == digest(data))
