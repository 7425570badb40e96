#!/usr/bin/env python3
"""Render committed data into the markdown tables the docs embed:
results/*.csv into EXPERIMENTS.md, the BENCH_*.json reports into README.md.

usage: python3 render_results.py [--check] [FILE...]   (from the repository root)

Each table lives between a persistent pair of markers in its FILE
(default: both files),

    <!-- BEGIN TABLE2_MEASURED -->
    …
    <!-- END TABLE2_MEASURED -->

and every run replaces what is between them, so a table can never go
stale against its data unnoticed: with `--check` nothing is written and the
exit status is 1 if rendering would change a FILE (`ci.sh` runs that). All
of a file's tables are rendered before anything is written, so data that is
missing or no longer has the fields read here ends the run with a
traceback and the file untouched; a missing marker pair is an error too.
README's perf-trajectory table keeps each row's rung, file and description
and re-renders its numbers from the row's `BENCH_*.json`.
"""
import csv, json, pathlib, re, sys

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


def bench(path):
    """A committed BENCH report's cells, keyed by (system, population)."""
    cells = json.loads(pathlib.Path(path).read_text())["cells"]
    return {(c["system"], c["population"]): c for c in cells}


def grouped(n):
    """A whole number with its thousands set apart: 614 579."""
    return f"{n:,.0f}".replace(",", " ")


def wall(ms):
    """Wall seconds per simulated hour: two decimals below 10 s, whole above."""
    return f"{ms / 1000:.2f} s" if ms < 10_000 else f"{ms / 1000:.0f} s"


def scale():
    out = ["| system | P | events | events/sec | wall / sim-hour | peak RSS |",
           "|---|--:|--:|--:|--:|--:|"]
    for c in bench("BENCH_arena.json").values():
        out.append(
            f"| {c['system']} | {grouped(c['population'])} | {grouped(c['events'])} "
            f"| {grouped(c['events_per_sec'])} | {wall(c['wall_ms_per_sim_hour'])} "
            f"| {c['peak_rss_bytes'] / 2**20:.0f} MiB |"
        )
    return "\n".join(out)


def trajectory(old):
    """The rungs already listed in `old`, each row's numbers re-read from
    the `BENCH_*.json` its file column names."""
    out = ["| rung | file | what it introduced | Squirrel P=300: events | wall / sim-hour "
           "| Squirrel P=10 000: wall / sim-hour |",
           "|------|------|--------------------|--:|--:|--:|"]
    for line in old.splitlines()[2:]:
        rung, file, what = [c.strip() for c in line.strip("|").split("|")][:3]
        cells = bench(file.strip("`"))
        small, large = cells[("Squirrel", 300)], cells.get(("Squirrel", 10_000))
        out.append(
            f"| {rung} | {file} | {what} | {grouped(small['events'])} "
            f"| {wall(small['wall_ms_per_sim_hour'])} "
            f"| {wall(large['wall_ms_per_sim_hour']) if large else '—'} |"
        )
    return "\n".join(out)


# Each file's tables: marker name → renderer of the block's new content
# from its current one.
TABLES = {
    "EXPERIMENTS.md": {
        "TABLE2_MEASURED": lambda _: table2(),
        "A1_MEASURED": lambda _: petalup(),
        "A2_MEASURED": lambda _: maintenance(),
        "A3_MEASURED": lambda _: cache(),
    },
    "README.md": {
        "SCALE_MEASURED": lambda _: scale(),
        "PERF_TRAJECTORY": trajectory,
    },
}


def render(path, check):
    """Re-render `path`'s tables; return False if `check` finds one stale."""
    before = md = path.read_text()
    for name, table in TABLES[path.name].items():
        begin, end = f"<!-- BEGIN {name} -->", f"<!-- END {name} -->"
        pair = re.compile(re.escape(begin) + "(.*?)" + re.escape(end), re.S)
        found = pair.findall(md)
        if len(found) != 1:
            sys.exit(f"{path}: expected one {begin} … {end} pair, found {len(found)}")
        new = table(found[0].strip("\n"))
        md = pair.sub(lambda _: f"{begin}\n{new}\n{end}", md)
    if md == before:
        print(f"{path}: tables match their data")
    elif check:
        print(f"{path}: tables are stale against their data: "
              "run python3 render_results.py and commit the result", file=sys.stderr)
        return False
    else:
        path.write_text(md)
        print(f"{path}: tables re-rendered")
    return True


if __name__ == "__main__":
    args = sys.argv[1:]
    check = "--check" in args
    files = [a for a in args if a != "--check"] or list(TABLES)
    fresh = [render(pathlib.Path(f), check) for f in files]
    sys.exit(0 if all(fresh) else 1)
