"""The three benchmark workloads as chainqfi command lines.

Each command is a dict with ``key`` (unique within a pass), ``kind`` (one
of the six README invocations), ``argv`` (the arguments after
``chainqfi``), ``out`` (the directory it writes, relative to the pass
directory) and, for ``synth`` and ``qfi``, the temperature strings it was
given. Every command runs with ``--deterministic`` so that passes of the
same command on the same inputs must produce byte-identical files.
"""
from __future__ import annotations

import math

WORKLOADS = ("readme_cold", "reduce_8t", "generate_model")

# Why each workload exists; printed with the results.
WHY = {
    "readme_cold": "the six README commands as fresh processes: start-up and import cost",
    "reduce_8t": "read-heavy analysis of an 8-temperature dataset: array kernel, ingest, render",
    "generate_model": "write-heavy synth plus model QFI on 32 temperatures: scalar kernel under quad",
}

# Model parameters shared by synth and qfi --model (the CLI defaults).
J_KELVIN = 3.1
A_STARYKH = 0.00065
T0_KELVIN = math.pi * J_KELVIN / 8.0
BOLTZMANN_MEV_PER_K = 0.08617333
G_FACTOR = 2.1

README_DATA_TEMPS = ("0.2", "0.5")
README_MODEL_TEMPS = ("0.04", "0.5", "3", "6.7")
REDUCE_TEMPS = ("0.04", "0.06", "0.1", "0.15", "0.2", "0.3", "0.45", "0.7")


def _geomspace(lo: float, hi: float, n: int) -> list[str]:
    return [format(lo * (hi / lo) ** (k / (n - 1)), ".6g") for k in range(n)]


# 24 temperatures below the cutoff and 8 above its excluded band
# [T0 e^-1/2, T0 e^1/2] = [0.74, 2.01] K (absolute-value policy).
GENERATE_MODEL_TEMPS = tuple(_geomspace(0.02, 0.7, 24) + _geomspace(2.2, 8.0, 8))


def tag(temperature: str) -> str:
    """File-name tag chainqfi synth uses for a temperature, e.g. 0.2 -> 0p2."""
    return f"{float(temperature):g}".replace(".", "p")


def synth(temps, seed: int, policy: str | None = None) -> dict:
    argv = ["synth", "--temps", ",".join(temps), "--seed", str(seed), "--noise", "1.0",
            "--elastic-amp", "100", "--out", "data", "--deterministic"]
    if policy:
        argv += ["--policy", policy]
    return {"key": "synth", "kind": "synth", "argv": argv, "out": "data", "temps": list(temps)}


def _fit(chi_csv: str) -> dict:
    out = "out/fit_susceptibility"
    return {"key": "fit_susceptibility", "kind": "fit_susceptibility", "out": out,
            "argv": ["fit-susceptibility", chi_csv, "--out", out, "--freeze",
                     f"g={G_FACTOR}", "--deterministic"]}


def _witness(chi_csv: str) -> dict:
    out = "out/witness"
    return {"key": "witness", "kind": "witness", "out": out,
            "argv": ["witness", chi_csv, "--g", str(G_FACTOR), "--out", out, "--deterministic"]}


def _qfi_model(temps) -> dict:
    out = "out/qfi_model"
    return {"key": "qfi_model", "kind": "qfi_model", "out": out, "temps": list(temps),
            "argv": ["qfi", "--model", "--policy", "absolute-value", "--temps", ",".join(temps),
                     "--out", out, "--deterministic"]}


def _qfi_data(data_dir: str, temps) -> dict:
    out = "out/qfi_data"
    manifests = [f"{data_dir}/manifest_T{tag(t)}.json" for t in temps]
    return {"key": "qfi_data", "kind": "qfi_data", "out": out, "temps": list(temps),
            "argv": ["qfi", "--data", *manifests, "--out", out, "--deterministic"]}


def _spinon(data_dir: str, temp: str, key: str) -> dict:
    out = f"out/{key}"
    return {"key": key, "kind": "spinon", "out": out,
            "argv": ["spinon", "--data", f"{data_dir}/manifest_T{tag(temp)}.json",
                     "--j-kelvin", str(J_KELVIN), "--out", out, "--deterministic"]}


def readme_commands(seed: int) -> list[dict]:
    """The README sequence; each command gets its own output directory so
    that qfi --data does not overwrite the files qfi --model is checked on."""
    return [
        synth(README_DATA_TEMPS, seed),
        _fit("data/chi.csv"),
        _witness("data/chi.csv"),
        _qfi_model(README_MODEL_TEMPS),
        _qfi_data("data", README_DATA_TEMPS),
        _spinon("data", README_DATA_TEMPS[0], "spinon"),
    ]


def reduce_setup_command(seed: int) -> dict:
    return synth(REDUCE_TEMPS, seed, policy="strict")


def reduce_commands() -> list[dict]:
    """Reads the dataset that set-up generated in ``../data``."""
    return [
        _qfi_data("../data", REDUCE_TEMPS),
        *[_spinon("../data", t, f"spinon_T{tag(t)}") for t in REDUCE_TEMPS],
        _fit("../data/chi.csv"),
        _witness("../data/chi.csv"),
    ]


def generate_commands(seed: int) -> list[dict]:
    return [synth(REDUCE_TEMPS, seed, policy="strict"), _qfi_model(GENERATE_MODEL_TEMPS)]
