"""Summarise run records across seeds and write the committed baseline.

    python3 perfbench/baseline.py [--write] [RECORD.json ...]

Reads the records run.py leaves in ``.perfbench/runs/`` (or the files
given) and prints, per workload and end-to-end metric, the median of the
per-run medians, their quartiles and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json. With ``--write`` it also writes
``perfbench/BENCH_baseline.json``: those summaries, the per-command
times, the per-layer metrics of the traced runs and one traced per-layer
split, the fingerprints and recovery readout of every seed, and the
machine and load the runs saw.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import summary


def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("nan")


def aggregate(records: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        mine = sorted((r for r in records if r["workload"] == workload), key=lambda r: r["seed"])
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry: dict = {
            "runs": len(plain), "traced_runs": len(traced),
            "seeds": [r["seed"] for r in plain], "seconds": sorted({r["seconds"] for r in mine}),
            "ops_attempted": sum(r["ops_attempted"] for r in mine),
            "ops_failed": sum(r["ops_failed"] for r in mine),
        }
        if plain:
            entry["end_to_end"] = {}
            for name in plain[0]["e2e"]:
                s = summary([r["e2e"][name]["median"] for r in plain])
                s["spread"] = _spread(s)
                s["bound"] = bounds.get(name)
                s["passes_per_run"] = [r["e2e"][name]["n"] for r in plain]
                entry["end_to_end"][name] = s
            entry["per_command"] = {
                name: summary([r["per_command"][name]["median"] for r in plain])
                for name in plain[0]["per_command"]}
            entry["fingerprints"] = {str(r["seed"]): r["fingerprints"] for r in plain}
            recoveries = {str(r["seed"]): r["recovery"] for r in plain if r["recovery"]}
            if recoveries:
                entry["recovery"] = recoveries
        if traced:
            entry["per_layer"] = {
                name: statistics.median_low(r["per_layer"][name] for r in traced)
                for name in traced[0]["per_layer"]}
            entry["layer_split"] = {"seed": traced[0]["seed"], **traced[0]["layer_split"]}
        entry["machine"] = mine[0]["machine"]
        loads = [v for r in mine for v in (r["loadavg_start"] or [])[:1] + (r["loadavg_end"] or [])[:1]]
        entry["loadavg_1min_range"] = [min(loads), max(loads)] if loads else None
        out[workload] = entry
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("records", nargs="*", type=Path)
    args = parser.parse_args()
    paths = args.records or sorted(Path(".perfbench/runs").glob("*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = aggregate(records, bounds)
    for workload, entry in result.items():
        print(f"{workload}: {entry['runs']} runs, {entry['traced_runs']} traced, "
              f"ops {entry['ops_attempted']} failed {entry['ops_failed']}")
        for name, s in entry.get("end_to_end", {}).items():
            verdict = "" if s["bound"] is None else (
                "ok" if s["spread"] < s["bound"] / 3 else "WIDE" if s["spread"] < s["bound"] else "OVER")
            print(f"  {name:<14} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}  {verdict}")
    if args.write:
        out = Path(__file__).with_name("BENCH_baseline.json")
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
