"""Benchmark of the chainqfi analysis chain.

    python3 perfbench/run.py --workload reduce_8t --seed 7 --seconds 50 --trace 0

Run it from the repository root; it uses the chainqfi sources in ``src/``.
``--workload`` is one of readme_cold, reduce_8t, generate_model (see
workloads.py for what each pass runs and why), or ``all`` to run the three
in turn. BENCHMARK.json gates reduce_8t and generate_model, which between
them exercise every layer; readme_cold runs only by hand, since its long
passes leave too few samples per run to be steady on a small shared host.
The seed sets the synthetic dataset (default 7, the README's).

Each workload is a closed loop with one client: passes run one after
another, and every pass starts fresh processes, so no in-process cache
survives from one pass to the next. Set-up is repeated five times and
reported as its median. Passes then repeat until ``--seconds`` have gone
by. Every command's outputs are checked (checks.py) and hashed; a pass
whose files differ from the first pass of the same command counts as a
failed operation, because ``--deterministic`` reruns must be identical.

With ``--trace 0`` the end-to-end metrics are the medians of untraced
passes (``import_s`` is sampled twice per pass: in the pass and in one
more fresh process); the table also shows their quartiles and sample
count. With ``--trace 1`` traced passes alternate with untraced
ones: the traced passes run every command through ``chainqfi.cli.main`` in
fresh workers with the span wrappers of spans.py, and give each layer a
self time and work counts; the difference of the two pass medians is the
tracing overhead.

A table of every metric goes to stdout, the full record (machine, load,
samples, per-layer split, fingerprints, recovery readout) to
``.perfbench/runs/``, and the last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads

SETUP_REPEATS = 5
IMPORT_PROBE_REPEATS = 3
RUN_DEADLINE_S = 170.0
COMMAND_METRICS = ("synth", "fit_susceptibility", "witness", "qfi_model", "qfi_data", "spinon")
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "import_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBES = {
    "import.numpy_s": "numpy",
    "import.chainqfi_cli_s": "chainqfi.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_optimize_s": "scipy.optimize",
}


class HarnessError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One workload run: its processes, operations and fingerprints."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float, ref: dict):
        self.root, self.workload, self.seed, self.deadline, self.ref = (
            root, workload, seed, deadline, ref)
        self.work = root / ".perfbench" / "work" / f"{workload}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        # one client, one busy process at a time: keep BLAS from spawning threads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.attempted = 0
        self.failures: list[dict] = []
        self.fingerprints: dict[str, dict[str, str]] = {}
        self.recovery: dict | None = None
        self._n = 0

    # -- processes ---------------------------------------------------------

    def process(self, argv: list[str], cwd: Path) -> dict:
        """Run one process to its end; returns rc, wall time, peak RSS, output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError(f"run deadline reached before starting {argv[1:3]}")
        self._n += 1
        out_path = self.work / "logs" / f"{self._n}.out"
        err_path = self.work / "logs" / f"{self._n}.err"
        status = usage = None
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                signal.setitimer(signal.ITIMER_REAL, remaining)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                wall = time.perf_counter() - start
            except BaseException as exc:
                if status is None:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -signal.SIGKILL
                if isinstance(exc, _Alarm):
                    raise HarnessError(f"run deadline reached while running {argv[1:3]}")
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(errors="replace"),
                "stderr": err_path.read_text(errors="replace")}

    def cli(self, cmd: dict, cwd: Path) -> dict:
        return self.process([sys.executable, "-m", "chainqfi.cli", *cmd["argv"]], cwd)

    def worker(self, commands: list[dict], cwd: Path, trace: bool) -> tuple[dict, dict]:
        spec = self.work / "spec.json"
        result = self.work / "result.json"
        spec.write_text(json.dumps({"commands": commands, "trace": trace}))
        result.unlink(missing_ok=True)
        proc = self.process(
            [sys.executable, str(self.root / "perfbench" / "worker.py"), str(spec), str(result)],
            cwd)
        if proc["rc"] != 0 or not result.exists():
            raise HarnessError(f"worker failed (exit {proc['rc']}): {proc['stderr'][-2000:]}")
        data = json.loads(result.read_text())
        src = (self.root / "src").resolve()
        if src not in Path(data["chainqfi_file"]).resolve().parents:
            raise HarnessError(f"chainqfi was imported from {data['chainqfi_file']}, not {src}")
        return proc, data

    # -- operations ----------------------------------------------------------

    def operation(self, cmd: dict, rc, stderr: str, tb: str, passdir: Path) -> None:
        self.attempted += 1
        failure = checks.check(cmd, rc, stderr, tb, passdir, self.ref)
        if failure is None:
            prints = checks.fingerprint(passdir / cmd["out"])
            first = self.fingerprints.setdefault(cmd["key"], prints)
            if prints != first:
                differ = sorted(k for k in set(prints) | set(first) if prints.get(k) != first.get(k))
                failure = f"outputs differ from the first run of this command: {differ}"
        if failure is not None:
            self.failures.append({"key": cmd["key"], "why": failure})

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # -- passes ----------------------------------------------------------------

    def import_probe(self) -> float:
        _, data = self.worker([], self.work, trace=False)
        return data["import_s"]

    def pass_commands(self) -> list[dict]:
        if self.workload == "readme_cold":
            return workloads.readme_commands(self.seed)
        if self.workload == "reduce_8t":
            return workloads.reduce_commands()
        return workloads.generate_commands(self.seed)

    def run_pass(self, trace: bool) -> dict:
        passdir = self.fresh("pass")
        commands = self.pass_commands()
        rec = {"traced": trace, "command_s": dict.fromkeys(COMMAND_METRICS, 0.0)}
        results = []  # worker results, for the traced split
        # ran: (seconds, exit code, stderr, traceback) per command
        if self.workload == "readme_cold":
            ran, rss = [], []
            start = time.perf_counter()
            for cmd in commands:
                if trace:
                    proc, data = self.worker([cmd], passdir, trace=True)
                    results.append(data)
                    res = data["commands"][0]
                    ran.append((proc["wall"], res["rc"], res["stderr"], res["traceback"]))
                else:
                    proc = self.cli(cmd, passdir)
                    ran.append((proc["wall"], proc["rc"], proc["stderr"], ""))
                rss.append(proc["rss_mb"])
            rec["pass_s"] = time.perf_counter() - start
            rec["peak_rss_mb"] = max(rss)
            rec["import_s"] = [self.import_probe()]
        else:
            proc, data = self.worker(commands, passdir, trace)
            results.append(data)
            ran = [(r["seconds"], r["rc"], r["stderr"], r["traceback"]) for r in data["commands"]]
            rec["pass_s"] = proc["wall"]
            rec["peak_rss_mb"] = proc["rss_mb"]
            rec["import_s"] = [data["import_s"]]
        if not trace:
            # one more fresh import per pass doubles the import_s samples
            rec["import_s"].append(self.import_probe())
        for cmd, (seconds, rc, stderr, tb) in zip(commands, ran):
            rec["command_s"][cmd["kind"]] += seconds
            self.operation(cmd, rc, stderr, tb, passdir)
        if self.workload == "reduce_8t" and self.recovery is None:
            try:
                self.recovery = checks.recovery(passdir, self.work / "data", self.ref)
            except (OSError, ValueError, KeyError) as exc:
                self.recovery = {"error": f"{type(exc).__name__}: {exc}"}
        if trace:
            rec["layers"] = layer_split(results)
        return rec

    def setup(self) -> list[float]:
        """SETUP_REPEATS set-ups; returns their times. reduce_8t generates its dataset
        with chainqfi synth; the others run one untimed warm-up pass."""
        times = []
        if self.workload != "reduce_8t":
            for _ in range(SETUP_REPEATS):
                times.append(self.run_pass(trace=False)["pass_s"])
            return times
        cmd = workloads.reduce_setup_command(self.seed)
        for k in range(SETUP_REPEATS):
            where = self.fresh(f"setup{k}")
            proc = self.cli(cmd, where)
            times.append(proc["wall"])
            self.operation(cmd, proc["rc"], proc["stderr"], "", where)
        (self.work / "setup0" / "data").rename(self.work / "data")
        return times

    def import_layers(self) -> dict:
        """Cold import costs, each timed in its own fresh process."""
        samples = {"import.python_s": []}
        samples.update({name: [] for name in IMPORT_PROBES})
        for _ in range(IMPORT_PROBE_REPEATS):
            samples["import.python_s"].append(
                self.process([sys.executable, "-c", "pass"], self.work)["wall"])
            for name, module in IMPORT_PROBES.items():
                code = ("import time; t = time.perf_counter(); import " + module
                        + "; print(repr(time.perf_counter() - t))")
                proc = self.process([sys.executable, "-c", code], self.work)
                if proc["rc"] != 0:
                    raise HarnessError(f"import {module} failed: {proc['stderr'][-500:]}")
                samples[name].append(float(proc["stdout"]))
        return {name: statistics.median(v) for name, v in samples.items()}

    def run(self, seconds: int, trace: bool) -> dict:
        self.fresh("logs")
        setup = self.setup()
        imports = self.import_layers() if trace else {}
        passes = []
        need = 2 if trace else 1
        start = time.monotonic()
        while True:
            # trace runs alternate untraced and traced passes, untraced first
            traced = trace and len(passes) % 2 == 1
            t = time.monotonic()
            passes.append(self.run_pass(traced))
            last = time.monotonic() - t
            elapsed = time.monotonic() - start
            if len(passes) >= need and (elapsed >= seconds
                                         or time.monotonic() + 2 * last > self.deadline):
                break
        return {"setup": setup, "passes": passes, "imports": imports}


# -- per-layer split -----------------------------------------------------------

def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_split(results: list[dict]) -> dict:
    """Self time per span name and work counts, summed over one traced pass.

    Each command's spans run from its ``cli.main`` root to the next root, so
    ``cli.self_s`` plus the layer self times of a command equal its span.
    """
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    commands = []
    for data in results:
        spans = data["spans"]
        own = _self_times(spans)
        roots = [c["root_span"] for c in data["commands"]] + [len(spans)]
        for cmd, lo, hi in zip(data["commands"], roots, roots[1:]):
            split: dict[str, float] = {}
            for k in range(lo, hi):
                split[spans[k][0]] = split.get(spans[k][0], 0.0) + own[k]
            total = spans[lo][2] - spans[lo][1]
            if abs(sum(split.values()) - total) > 1e-9 * max(1.0, total):
                raise HarnessError(f"layer split of {cmd['key']} does not add up")
            commands.append({"key": cmd["key"], "command_s": total, "self_s": split,
                             "scipy_loaded": cmd["scipy_loaded"]})
            for name, value in split.items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in cmd["counts"].items():
                counts[name] = counts.get(name, 0) + value
    return {"self_s": self_s, "counts": counts, "commands": commands,
            "scipy_loaded": sum(c["scipy_loaded"] for c in commands)}


def _module_self(split: dict, module: str) -> float:
    return sum(v for k, v in split["self_s"].items() if k.startswith(module + "."))


def layer_metrics(split: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    s, c = split["self_s"], split["counts"]
    points = c.get("dynamics.chi_imag_starykh.points", 0)
    chi_s = s.get("dynamics.chi_imag_starykh", 0.0)
    return {
        "import.scipy_loaded": split["scipy_loaded"],
        "dynamics.chi_imag_starykh.calls": c.get("dynamics.chi_imag_starykh.calls", 0),
        "dynamics.chi_imag_starykh.points": points,
        "dynamics.chi_imag_starykh.self_s": chi_s,
        "dynamics.ns_per_point": 1e9 * chi_s / points if points else 0.0,
        "dynamics.sqw_starykh.calls": c.get("dynamics.sqw_starykh.calls", 0),
        "dynamics.self_s": _module_self(split, "dynamics"),
        "specfun.log_gamma_complex.calls": c.get("specfun.log_gamma_complex.calls", 0),
        "specfun.gamma_ratio_im.calls": c.get("specfun.gamma_ratio_im.calls", 0),
        "fitter.least_squares.calls": c.get("fitter.least_squares.calls", 0),
        "fitter.residual_evals": c.get("fitter.residual_evals", 0),
        "fitter.iterations": c.get("fitter.iterations", 0),
        "fitter.fallback_runs": c.get("fitter.fallback_runs", 0),
        "qfi.compute_qfi.calls": c.get("qfi.compute_qfi.calls", 0),
        "qfi.compute_qfi.self_s": s.get("qfi.compute_qfi", 0.0),
        "qfi.model_integrand_points": c.get("qfi.model_integrand_points", 0),
        "qfi.fit_scaling.self_s": s.get("qfi.fit_scaling", 0.0),
        "pipeline_io.self_s": _module_self(split, "pipeline_io"),
        "pipeline_io.read_spectrum_csv.rows": c.get("pipeline_io.read_spectrum_csv.rows", 0),
        "pipeline_io.sha256_of.calls": c.get("pipeline_io.sha256_of.calls", 0),
        "pipeline_io.sha256_of.self_s": s.get("pipeline_io.sha256_of", 0.0),
        "pipeline_io.write_spectrum_csv.bytes": c.get("pipeline_io.write_spectrum_csv.bytes", 0),
        "pipeline_io.write_spectrum_csv.self_s": s.get("pipeline_io.write_spectrum_csv", 0.0),
        "spinon.self_s": _module_self(split, "spinon"),
        "spinon.powder_to_1d.calls": c.get("spinon.powder_to_1d.calls", 0),
        "spinon.forward_powder_average.cells": c.get("spinon.forward_powder_average.cells", 0),
        "suscept.self_s": _module_self(split, "suscept"),
        "svgplot.render.calls": c.get("svgplot.render.calls", 0),
        "svgplot.render.bytes": c.get("svgplot.render.bytes", 0),
        "svgplot.render.self_s": s.get("svgplot.render", 0.0),
        "cli.self_s": s.get("cli.main", 0.0),
    }


# -- results -------------------------------------------------------------------

def machine(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions, "commit": _commit(root)}


def _commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def evaluate(bench: Bench, raw: dict, trace: bool) -> dict:
    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    e2e = {
        "setup_s": summary(raw["setup"]),
        "pass_s": summary([p["pass_s"] for p in untraced]),
        "import_s": summary([t for p in untraced for t in p["import_s"]]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in untraced]),
    }
    ran = {c["kind"] for c in bench.pass_commands()}
    per_command = {f"{k}_s": summary([p["command_s"][k] for p in untraced])
                   for k in COMMAND_METRICS if k in ran}
    result = {"e2e": e2e, "per_command": per_command}
    if trace:
        layers = [layer_metrics(p["layers"]) for p in traced]
        # the lower median is a value one traced pass measured, so counts stay whole
        per_layer = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        per_layer.update(raw["imports"])
        per_layer["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                         - e2e["pass_s"]["median"])
        result["per_layer"] = per_layer
        result["layer_split"] = traced[0]["layers"]
    return result


def print_table(bench: Bench, result: dict, trace: bool) -> None:
    print(f"== {bench.workload} (seed {bench.seed}): {workloads.WHY[bench.workload]}")
    print(f"   {'metric':<24}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    rows = [(k, E2E_UNITS[k], v) for k, v in result["e2e"].items() if k != "peak_rss_mb"]
    rows += [(f"{k}_s", "s", result["per_command"].get(f"{k}_s")) for k in COMMAND_METRICS]
    rows.append(("peak_rss_mb", "MB", result["e2e"]["peak_rss_mb"]))
    for name, unit, s in rows:
        if s is None:
            print(f"   {name:<24}{unit:>6}{'n/a (not run by this workload)':>40}")
        else:
            print(f"   {name:<24}{unit:>6}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['n']:>4}")
    frac = len(bench.failures) / bench.attempted
    print(f"   {'failed_frac':<24}{'1':>6}{frac:>12.5g}   ops_attempted {bench.attempted}"
          f"  ops_failed {len(bench.failures)}")
    for failure in bench.failures[:10]:
        print(f"   FAILED {failure['key']}: {failure['why']}")
    if bench.recovery is not None:
        print(f"   recovery (not gated): {json.dumps(bench.recovery, sort_keys=True)}")
    if trace:
        print("   per-layer split of one traced pass (self seconds, counts):")
        split = result["layer_split"]
        for name, value in sorted(split["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"     {name:<46}{value:>12.6f} s")
        for name, value in sorted(split["counts"].items()):
            print(f"     {name:<46}{value:>12}")
        for name, value in result["per_layer"].items():
            print(f"   {name:<44}{value!r:>24}")


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool,
                 ref: dict) -> dict:
    started = time.monotonic()
    bench = Bench(root, workload, seed, started + RUN_DEADLINE_S, ref)
    load_start = _loadavg()
    try:
        raw = bench.run(seconds, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = evaluate(bench, raw, trace)
    print_table(bench, result, trace)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(root), "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "setup_repeats": len(raw["setup"]),
        "passes": {"untraced": sum(not p["traced"] for p in raw["passes"]),
                   "traced": sum(p["traced"] for p in raw["passes"])},
        "ops_attempted": bench.attempted, "ops_failed": len(bench.failures),
        "failures": bench.failures, "fingerprints": bench.fingerprints,
        "recovery": bench.recovery, "samples": {"setup_s": raw["setup"], "passes": [
            {k: v for k, v in p.items() if k != "layers"} for p in raw["passes"]]},
        **result,
    }
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v["median"], "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()}
    return {"correct": not bench.failures, "attempted": bench.attempted,
            "failed": len(bench.failures), "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "dynamics.ns_per_point":
        return "ns"
    return "B" if name.endswith(".bytes") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "chainqfi" / "cli.py").is_file():
        print(f"perfbench: no chainqfi sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    ref = reference.load()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = [run_workload(root, w, args.seed, args.seconds, bool(args.trace), ref)
                    for w in names]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for outcome in outcomes:
        print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
