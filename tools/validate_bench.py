#!/usr/bin/env python3
"""Schema check for the committed BENCH_*.json files.

Each benchmark binary hand-writes its JSON (no serialization library in the
tree), so this validator is what keeps the committed files loadable and
shape-stable for downstream tooling. Run with no arguments from anywhere in
the repo to check every committed file, or pass explicit paths:

    tools/validate_bench.py [BENCH_foo.json ...]

A file validates iff it is a non-empty top-level JSON array whose rows all
carry exactly the keys the schema below records for that file, with the
recorded types, and with every "seconds" value non-negative. Exits nonzero
listing every violation.
"""
import json
import numbers
import pathlib
import sys

# File name -> {key: expected type}. A row must have exactly these keys.
INT = numbers.Integral
NUM = numbers.Real  # ints are fine where floats are expected
SCHEMAS = {
    "BENCH_incremental.json": {
        "name": str,
        "mode": str,
        "seconds": NUM,
        "candidates": INT,
    },
    "BENCH_opt.json": {
        "name": str,
        "mode": str,
        "horizon": INT,
        "seconds": NUM,
        "verdict": str,
        "nodesBefore": INT,
        "nodesAfter": INT,
        "assertionsBefore": INT,
        "assertionsAfter": INT,
    },
    "BENCH_portfolio.json": {
        "name": str,
        "mode": str,
        "seconds": NUM,
        "points": INT,
    },
    "BENCH_isolation.json": {
        "name": str,
        "mode": str,
        "seconds": NUM,
        "points": INT,
        "answered": INT,
        "restarts": INT,
    },
    "BENCH_cache.json": {
        "name": str,
        "mode": str,
        "seconds": NUM,
        "points": INT,
        "hits": INT,
        "misses": INT,
        "stores": INT,
    },
}

# Files emitted by google-benchmark (--benchmark_out_format=json): a
# top-level object with a "context" block and a "benchmarks" array, whose
# rows carry more keys than we pin down — validate the stable core only.
GOOGLE_BENCHMARK_FILES = {"BENCH_frontend.json"}

# Per-stage frontend timer families (bench/micro_frontend): at least one
# row of each must be present, and every row carries an `astNodes`
# counter reporting the arena size the stage operated on.
STAGE_BENCHMARK_PREFIXES = (
    "BM_StageParse/",
    "BM_StageTypecheck/",
    "BM_StageInline/",
    "BM_StageUnroll/",
    "BM_FrontHalf/",
)


def validate_google_benchmark(path: pathlib.Path) -> list:
    try:
        doc = json.loads(path.read_text())
    except OSError as err:
        return [f"{path}: unreadable: {err}"]
    except json.JSONDecodeError as err:
        return [f"{path}: invalid JSON: {err}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object (google-benchmark)"]
    errors = []
    if not isinstance(doc.get("context"), dict):
        errors.append(f"{path}: missing 'context' object")
    rows = doc.get("benchmarks")
    if not isinstance(rows, list) or not rows:
        return errors + [f"{path}: 'benchmarks' must be a non-empty array"]
    stage_rows = {prefix: 0 for prefix in STAGE_BENCHMARK_PREFIXES}
    for i, row in enumerate(rows):
        where = f"{path} benchmarks[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        name = row.get("name")
        if not isinstance(name, str):
            errors.append(f"{where}: 'name' should be str")
            name = ""
        if row.get("run_type") == "aggregate":
            # Complexity/statistics rows (BigO, RMS, mean/median/stddev)
            # report coefficients or percentages, not per-iteration times.
            continue
        for key in ("real_time", "cpu_time"):
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Real):
                errors.append(f"{where}: {key!r} should be a number")
            elif value < 0:
                errors.append(f"{where}: negative {key} ({value})")
        for prefix in STAGE_BENCHMARK_PREFIXES:
            if name.startswith(prefix):
                stage_rows[prefix] += 1
                # google-benchmark surfaces state.counters as extra
                # top-level numeric keys on the row.
                nodes = row.get("astNodes")
                if isinstance(nodes, bool) or not isinstance(nodes,
                                                             numbers.Real):
                    errors.append(
                        f"{where}: {name}: 'astNodes' counter should be "
                        f"a number")
                elif nodes <= 0:
                    errors.append(
                        f"{where}: {name}: 'astNodes' should be positive "
                        f"({nodes})")
    for prefix, count in stage_rows.items():
        if count == 0:
            errors.append(f"{path}: no '{prefix}*' benchmark rows")
    return errors


def validate(path: pathlib.Path) -> list:
    if path.name in GOOGLE_BENCHMARK_FILES:
        return validate_google_benchmark(path)
    schema = SCHEMAS.get(path.name)
    if schema is None:
        known = sorted(set(SCHEMAS) | GOOGLE_BENCHMARK_FILES)
        return [f"{path}: no schema for this file name "
                f"(known: {', '.join(known)})"]
    try:
        rows = json.loads(path.read_text())
    except OSError as err:
        return [f"{path}: unreadable: {err}"]
    except json.JSONDecodeError as err:
        return [f"{path}: invalid JSON: {err}"]
    if not isinstance(rows, list):
        return [f"{path}: top level must be an array"]
    if not rows:
        return [f"{path}: empty array — the benchmark wrote no rows"]
    errors = []
    for i, row in enumerate(rows):
        where = f"{path} row {i}"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = sorted(set(schema) - set(row))
        extra = sorted(set(row) - set(schema))
        if missing:
            errors.append(f"{where}: missing keys {missing}")
        if extra:
            errors.append(f"{where}: unexpected keys {extra}")
        for key, expected in schema.items():
            if key not in row:
                continue
            value = row[key]
            # bool is an Integral; a "seconds": true row is still a bug.
            if isinstance(value, bool) or not isinstance(value, expected):
                errors.append(
                    f"{where}: {key!r} should be "
                    f"{getattr(expected, '__name__', expected)}, "
                    f"got {type(value).__name__} ({value!r})")
            elif key == "seconds" and value < 0:
                errors.append(f"{where}: negative seconds ({value})")
    return errors


def main(argv: list) -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    names = set(SCHEMAS) | GOOGLE_BENCHMARK_FILES
    paths = ([pathlib.Path(a) for a in argv]
             if argv else sorted(repo / name for name in names))
    all_errors = []
    for path in paths:
        errors = validate(path)
        all_errors.extend(errors)
        status = "FAIL" if errors else "ok"
        rows = ""
        if not errors:
            doc = json.loads(path.read_text())
            count = len(doc["benchmarks"] if isinstance(doc, dict) else doc)
            rows = f" ({count} rows)"
        print(f"  {path.name}: {status}{rows}")
    for err in all_errors:
        print(err, file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
