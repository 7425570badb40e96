#!/usr/bin/env python3
"""Render results/*.csv into the markdown tables EXPERIMENTS.md embeds.

usage: python3 render_results.py [--check] [FILE]   (from the repository root)

Each table lives between a persistent pair of markers in FILE (default
EXPERIMENTS.md),

    <!-- BEGIN TABLE2_MEASURED -->
    …
    <!-- END TABLE2_MEASURED -->

and every run replaces what is between them, so a table can never go
stale against its CSV unnoticed: with `--check` nothing is written and the
exit status is 1 if rendering would change FILE (`ci.sh` runs that). All
four tables are rendered before anything is written, so a CSV that is
missing or no longer has the columns read here ends the run with a
traceback and FILE untouched; a missing marker pair is an error too.
"""
import csv, pathlib, re, sys

R = pathlib.Path("results")


def rows(name):
    with open(R / name, newline="") as f:
        data = list(csv.DictReader(f))
    if not data:
        sys.exit(f"{R / name}: no rows")
    return data


def cells(name):
    """A sweep summary in long format (`cell,system,population,runs,metric,
    mean,stddev,ci95`) as one dict per cell, in file order."""
    out = {}
    for r in rows(name):
        cell = out.setdefault(r["cell"], {k: r[k] for k in ("cell", "system", "population")})
        cell[r["metric"]] = float(r["mean"])
    return list(out.values())


def count(x):
    """A mean of counts: whole when it is (one run), else one decimal."""
    return f"{float(x):.1f}".removesuffix(".0")


def table2():
    out = ["| P | approach | hit ratio | lookup | transfer |", "|---|---|---|---|---|"]
    for c in cells("table2_scalability.csv"):
        out.append(
            f"| {c['population']} | {c['system']} | {c['hit_ratio']:.2f} "
            f"| {c['mean_lookup_ms']:.0f} ms | {c['mean_transfer_ms']:.0f} ms |"
        )
    return "\n".join(out)


def petalup():
    out = ["| capacity | live instances | max instance | max load | splits | hit ratio |",
           "|---|---|---|---|---|---|"]
    for r in rows("ablation_petalup.csv"):
        out.append(
            f"| {r['capacity']} | {count(r['instances_mean'])} | {count(r['max_instance_mean'])} "
            f"| {count(r['max_load_mean'])} | {count(r['splits_mean'])} "
            f"| {float(r['hit_ratio_mean']):.3f} |"
        )
    return "\n".join(out)


def maintenance():
    out = ["| variant | hit ratio | mean lookup | repairs |", "|---|---|---|---|"]
    for c in cells("ablation_maintenance.csv"):
        out.append(
            f"| {c['cell']} | {c['hit_ratio']:.3f} "
            f"| {c['mean_lookup_ms']:.0f} ms | {count(c['replacements'])} |"
        )
    return "\n".join(out)


def cache():
    out = ["| policy | hit ratio | mean lookup | stale-redirect misses | queries |",
           "|---|---|---|---|---|"]
    for r in rows("ablation_cache.csv"):
        out.append(
            f"| {r['policy']} | {float(r['hit_ratio_mean']):.3f} "
            f"| {float(r['mean_lookup_ms_mean']):.0f} ms | {count(r['fetch_misses_mean'])} "
            f"| {count(r['queries_mean'])} |"
        )
    return "\n".join(out)


if __name__ == "__main__":
    args = sys.argv[1:]
    check = "--check" in args
    files = [a for a in args if a != "--check"]
    path = pathlib.Path(files[0] if files else "EXPERIMENTS.md")
    before = md = path.read_text()
    tables = [
        ("TABLE2_MEASURED", table2()),
        ("A1_MEASURED", petalup()),
        ("A2_MEASURED", maintenance()),
        ("A3_MEASURED", cache()),
    ]
    for name, table in tables:
        begin, end = f"<!-- BEGIN {name} -->", f"<!-- END {name} -->"
        pair = re.compile(re.escape(begin) + ".*?" + re.escape(end), re.S)
        md, n = pair.subn(lambda _: f"{begin}\n{table}\n{end}", md)
        if n != 1:
            sys.exit(f"{path}: expected one {begin} … {end} pair, found {n}")
    if md == before:
        print(f"{path}: tables match results/")
    elif check:
        sys.exit(f"{path}: tables are stale against results/*.csv: "
                 "run python3 render_results.py and commit the result")
    else:
        path.write_text(md)
        print(f"{path}: tables re-rendered from results/")
