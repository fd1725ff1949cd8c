"""Output check: one run's report against the reference recorded for it.

A run's report is its stdout plus every file it wrote, except
``timings.csv`` (wall clock, different on every run).  Each line is split
into text and number tokens.  Text tokens, which carry every gate verdict
(``PASS``/``FAIL``, ``ok``/``failed:``, ``true``/``false``), must match the
reference exactly.  Integer tokens must match exactly.  Float tokens may
differ by rounding only: ``1e-13 + 1e-9 * |x|`` plus one unit in the last
printed digit, because a change that reorders floating-point sums may move
reported values by rounding.

The seed changes only the sampling audits, so a reference is recorded at
sixteen seeds; tokens that differ between any two of them are marked
``seeded`` and are checked for kind (number or text) but not value.  The
verdicts next to them are still compared.  Sixteen seeds catch the
nondegeneracy measure of ``kinetic_1d``, which moves on about one seed in
ten; a value that moves more rarely than that could be missed.

    python bench/check.py record     # write reference/<workload>.json
    python bench/check.py selftest   # show the check rejects bad reports
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
RECORD_SEEDS = tuple(range(16))
ATOL, RTOL = 1e-13, 1e-9
SKIPPED_FILES = ("timings.csv",)
OUT_MARK = "<out>"

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def collect(stdout: str, out_dir: Path) -> dict[str, list[str]]:
    """The report of one run: stdout and every written file, by name."""
    files = {"stdout": stdout.replace(str(out_dir), OUT_MARK).splitlines()}
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            if path.name not in SKIPPED_FILES:
                rel = path.relative_to(out_dir).as_posix()
                files[rel] = path.read_text().splitlines()
    return files


def tokens(line: str) -> list[tuple[str, str]]:
    """Split a line into ("text", s) and ("num", s) tokens."""
    out, pos = [], 0
    for m in _NUMBER.finditer(line):
        if m.start() > pos:
            out.append(("text", line[pos:m.start()]))
        out.append(("num", m.group()))
        pos = m.end()
    if pos < len(line):
        out.append(("text", line[pos:]))
    return out


def _last_place(s: str) -> float:
    """One unit in the last printed digit of a float token."""
    mant, _, exp = s.lower().partition("e")
    decimals = len(mant.split(".", 1)[1]) if "." in mant else 0
    return 10.0 ** (int(exp or 0) - decimals)


def numbers_agree(got: str, want: str) -> bool:
    is_int = not any(c in want.lower() for c in ".en")
    if is_int:
        return got == want
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b)) + _last_place(want)


def compare(got: dict, exit_code: int, ref: dict) -> list[str]:
    """Every disagreement between a run and its reference; empty if none."""
    problems = []
    if exit_code != ref["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit_code']}")
    for name, lines in got.items():
        for i, line in enumerate(lines):
            if "failed:" in line:
                problems.append(f"{name}:{i + 1}: level failed: {line}")
    if sorted(got) != sorted(ref["files"]):
        problems.append(f"files {sorted(got)}, expected {sorted(ref['files'])}")
    seeded = set(ref["seeded"])
    for name in sorted(set(got) & set(ref["files"])):
        want_lines, got_lines = ref["files"][name], got[name]
        if len(got_lines) != len(want_lines):
            problems.append(f"{name}: {len(got_lines)} lines, "
                            f"expected {len(want_lines)}")
            continue
        for i, (g, w) in enumerate(zip(got_lines, want_lines)):
            gt, wt = tokens(g), tokens(w)
            if [k for k, _ in gt] != [k for k, _ in wt]:
                problems.append(f"{name}:{i + 1}: {g!r} != {w!r}")
                continue
            for j, ((kind, gs), (_, ws)) in enumerate(zip(gt, wt)):
                if f"{name}:{i}:{j}" in seeded:
                    continue
                ok = gs == ws if kind == "text" else numbers_agree(gs, ws)
                if not ok:
                    problems.append(f"{name}:{i + 1}: {gs!r} != {ws!r} "
                                    f"in {w!r}")
    return problems


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


# ---------------------------------------------------------------------------
# recording

def seeded_tokens(runs: list[dict]) -> list[str]:
    """Positions whose token differs between recordings at different seeds.

    Raises if the recordings differ in shape or in a verdict, because then
    the seed changes more than the sampling audits' values.
    """
    first = runs[0]
    seeded = []
    for other in runs[1:]:
        if sorted(other) != sorted(first):
            raise ValueError("recordings at two seeds wrote different files")
        for name, lines in first.items():
            if len(lines) != len(other[name]):
                raise ValueError(f"{name}: line count depends on the seed")
            for i, (a, b) in enumerate(zip(lines, other[name])):
                ta, tb = tokens(a), tokens(b)
                if [k for k, _ in ta] != [k for k, _ in tb]:
                    raise ValueError(f"{name}:{i + 1}: shape depends on seed")
                for j, ((kind, sa), (_, sb)) in enumerate(zip(ta, tb)):
                    if sa == sb:
                        continue
                    if kind == "text":
                        raise ValueError(f"{name}:{i + 1}: text {sa!r} vs "
                                         f"{sb!r} depends on the seed")
                    seeded.append(f"{name}:{i}:{j}")
    return sorted(set(seeded))


def record():
    """Run every workload at the recording seeds and write its reference."""
    import layers
    import run as bench  # the runner imports this module, so import it late

    root = bench.repo_root()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in bench.WORKLOADS.items():
        runs, codes = [], []
        for seed in RECORD_SEEDS:
            rep = bench.run_once(root, workload, seed, trace=False)
            runs.append(rep.report)
            codes.append(rep.exit_code)
        if set(codes) != {0}:
            raise SystemExit(f"{name}: exit codes {codes}; a benchmark "
                             "workload must pass")
        traced = bench.run_once(root, workload, RECORD_SEEDS[0], trace=True)
        counts = layers.layer_metrics(traced.spans, traced.wall_s, 0.0)
        ref = {"workload": name, "exit_code": codes[0],
               "recorded_seeds": list(RECORD_SEEDS),
               "counts": {k: counts[k] for k in bench.COUNT_KEYS},
               "seeded": seeded_tokens(runs), "files": runs[0]}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {sum(map(len, runs[0].values()))} lines, "
              f"{len(ref['seeded'])} seeded tokens -> {path}")


# ---------------------------------------------------------------------------
# self-test

VERDICT_FLIPS = (("PASS", "FAIL"), (" true", " false"), (",ok", ",failed:x"))


def _flip_verdict(files: dict) -> dict:
    for good, bad_word in VERDICT_FLIPS:
        for name, lines in files.items():
            for i, line in enumerate(lines):
                if good in line:
                    bad = {k: list(v) for k, v in files.items()}
                    bad[name][i] = line.replace(good, bad_word, 1)
                    return bad
    raise ValueError("reference holds no verdict")


def _significant_digits(s: str) -> int:
    mant = s.lower().partition("e")[0]
    return len(mant.lstrip("+-").replace(".", "").lstrip("0"))


def _perturb_value(files: dict, seeded: set, rel: float) -> dict:
    """Scale one full-precision value of magnitude at least 1e-6 by 1 + rel,
    preferring data lines to ``#`` header lines."""
    lines = [(line.startswith("#"), name, i, line)
             for name, body in files.items() for i, line in enumerate(body)]
    for _, name, i, line in sorted(lines, key=lambda c: c[0]):
        toks = tokens(line)
        for j, (kind, s) in enumerate(toks):
            if (kind == "num" and f"{name}:{i}:{j}" not in seeded
                    and _significant_digits(s) >= 15
                    and 1e-6 <= abs(float(s)) < math.inf):
                toks[j] = (kind, repr(float(s) * (1.0 + rel)))
                bad = {k: list(v) for k, v in files.items()}
                bad[name][i] = "".join(t for _, t in toks)
                return bad
    raise ValueError("reference holds no full-precision value to perturb")


def selftest(workloads=None) -> list[str]:
    """Failures of the check itself; empty when it behaves.

    For each reference: the reference passes against itself, and so does a
    copy with one value moved by rounding (a few parts in 1e16); a copy
    with one verdict flipped and a copy with one value moved by one part in
    a million are each rejected.
    """
    failures = []
    paths = sorted(REFERENCE_DIR.glob("*.json"))
    if workloads is not None:
        paths = [REFERENCE_DIR / f"{w}.json" for w in workloads]
    for path in paths:
        ref = json.loads(path.read_text())
        code, files, seeded = ref["exit_code"], ref["files"], set(ref["seeded"])
        if compare(files, code, ref):
            failures.append(f"{path.stem}: reference fails against itself")
        if not compare(_flip_verdict(files), code, ref):
            failures.append(f"{path.stem}: a flipped verdict was accepted")
        if compare(_perturb_value(files, seeded, 4e-16), code, ref):
            failures.append(f"{path.stem}: a rounding move was rejected")
        if not compare(_perturb_value(files, seeded, 1e-6), code, ref):
            failures.append(f"{path.stem}: a perturbed value was accepted")
        if not compare(files, code + 1, ref):
            failures.append(f"{path.stem}: a wrong exit code was accepted")
    if not paths:
        failures.append("no reference files")
    return failures


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        record()
        return 0
    if argv == ["selftest"]:
        failures = selftest()
        for f in failures:
            print(f"FAIL {f}")
        print("output-check self-test:", "FAIL" if failures else "PASS")
        return 1 if failures else 0
    print("usage: check.py record | selftest", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
