"""Command-line front end.

Subcommands: fit-susceptibility, witness, qfi, spinon, synth. Every
analysis command writes its numeric results to CSV/JSON next to the
figures, so the SVGs are never the only record. Each ``cmd_*`` reads,
validates, fits and integrates, then returns its reports, tables and
figures as ``{file name: content}``; ``main`` alone creates --out and
writes them, with one timestamp for every SVG, and only after the command
has returned, so a failing command leaves no output files. Exit codes:
0 success, 2 input or configuration error, 3 numerical failure, 4
domain-policy error; errors are emitted as JSON on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import dynamics, pipeline_io, qfi, spinon, suscept
from .core import ChainParameters, _is_positive, _positive, kelvin_to_mev
from .dynamics import StarykhParams
from .errors import ChainQfiError, FitDiverged, NoInteriorMaximum, NonPositiveValue
from .svgplot import Figure

J_FROM_TMAX_NOTE = (
    "J/k_B is reported as the unrounded quotient T_max / 0.640851; for "
    "T_max = 1.95 K this gives 3.043 K, about 0.2% below the commonly "
    "quoted rounded value of 3.05 K."
)


# the temperatures (K) of qfi --model without --temps: each below
# T0 exp(-1/2) = 0.738 K at the default J and T0, so the default strict
# policy admits them all
MODEL_TEMPS = "0.04,0.08,0.16,0.32"


def _as_json(result) -> dict:
    """A FitResult or ScalingFit as a JSON object, covariance as nested lists."""
    return {**asdict(result), "covariance": np.asarray(result.covariance).tolist()}


def _parse_temps(text: str) -> list[float]:
    """The comma-separated --temps list; every entry a finite number > 0."""
    temps = []
    for k, token in enumerate(text.split(","), start=1):
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not _is_positive(value):
            raise ValueError(f"--temps entry {k} ({token!r}) must be a finite number > 0")
        temps.append(value)
    return temps


def _require_positive_flags(args, *flags: str) -> None:
    """Refuse each of ``flags`` that is set but not a finite number > 0."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            _positive(value, flag)


def _policy_from_flag(flag: str) -> str:
    return {"strict": "strict", "absolute-value": "absolute_value"}[flag]


def _error_line(name: str, message: str, caught) -> str:
    """The one JSON line a failing command writes to stderr, with the
    warnings it held back."""
    line = {"error": name, "message": message}
    if caught:
        line["warnings"] = [
            {"category": w.category.__name__, "message": str(w.message)} for w in caught
        ]
    return json.dumps(line)


def _reissue(caught) -> None:
    """Raise again each warning a ``catch_warnings(record=True)`` recorded."""
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_fit_susceptibility(args) -> dict:
    curve = pipeline_io.read_susceptibility_csv(args.chi_csv)
    name_map = {"J": "j_over_kb", "g": "g_factor", "C0": "c0", "C1": "c1"}
    start = {"j_over_kb": args.j0, "g_factor": args.g0, "c0": 0.0, "c1": 0.0}
    frozen = set() if args.fit_c1 else {"c1"}
    for frag in args.freeze or []:
        if "=" not in frag:
            raise ValueError(f"--freeze expects NAME=VALUE, got {frag!r}")
        key, _, text = frag.partition("=")
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"--freeze expects a number after '=', got {frag!r}") from None
        key = key.strip()
        param = name_map.get(key, key)
        if param not in start:
            raise ValueError(f"unknown parameter {key!r} in --freeze")
        start[param] = value
        frozen.add(param)

    initial = ChainParameters(**start)
    try:
        t_max_data, t_max_data_unc = suscept.find_tmax(curve.temperatures, curve.chi)
        j_from_data = suscept.j_from_tmax(t_max_data)
    except (NoInteriorMaximum, ValueError):
        t_max_data = t_max_data_unc = j_from_data = None
    t_lo, t_hi = curve.temperatures[[0, -1]].tolist()
    try:
        result = suscept.fit_susceptibility(
            curve, initial, frozen=frozen, impurity_curie=args.impurity_curie
        )
        if not result.converged:
            raise FitDiverged(f"susceptibility fit did not converge: {result.message}")
        where = "fit reached J = {j_over_kb:.3g} K, g = {g_factor:.3g}".format(**result.parameters)
        try:
            fitted = ChainParameters(**result.parameters)
            t_max_model, t_max_model_unc = suscept.find_tmax_model(fitted)
        except ValueError as exc:
            # the fit converged to parameters no chain model takes
            raise FitDiverged(f"{where}: {exc}") from exc
        # data with a peak of their own need the model's peak among them
        if t_max_data is not None and not t_lo <= t_max_model <= t_hi:
            raise FitDiverged(
                f"{where}: its chi(T) peaks at {t_max_model:.4g} K, outside the data's "
                f"{t_lo:g} to {t_hi:g} K, where the data peak at {t_max_data:.4g} K"
            )
    except (ChainQfiError, ValueError) as exc:
        raise type(exc)(f"{args.chi_csv}: {exc}") from exc

    report = {
        "fit": _as_json(result),
        "t_max_model_K": t_max_model,
        "t_max_model_uncertainty_K": t_max_model_unc,
        "j_from_t_max_model_K": suscept.j_from_tmax(t_max_model),
        "t_max_data_K": t_max_data,
        "t_max_data_uncertainty_K": t_max_data_unc,
        "j_from_t_max_data_K": j_from_data,
        "j_from_t_max_note": J_FROM_TMAX_NOTE,
        "impurity_curie": args.impurity_curie,
        "inputs": [pipeline_io.file_record(args.chi_csv)],
    }
    fig = Figure(title="susceptibility fit", xlabel="T (K)", ylabel="chi (emu/mol)", xlog=True)
    fig.points(curve.temperatures, curve.chi, color="#000000", label="data")
    t_model = np.geomspace(curve.temperatures[0], curve.temperatures[-1], 400)
    fig.line(
        t_model,
        suscept.chi_full(t_model, fitted, impurity_curie=args.impurity_curie),
        color="#d62728",
        label="model",
    )
    fig.vline(t_max_model, label=f"T_max = {t_max_model:.4g} K")

    return {"fit_report.json": report, "chi_fit.svg": fig}


def cmd_witness(args) -> dict:
    curve = pipeline_io.read_susceptibility_csv(args.chi_csv)
    # witness_mwse reads only g and the spin; J is a placeholder
    params = ChainParameters(j_over_kb=1.0, g_factor=args.g)
    series = suscept.witness_mwse(curve, params)
    report = {
        "t_se_K": series.t_se,
        "g_factor": args.g,
        "spin": params.spin,
        "inputs": [pipeline_io.file_record(args.chi_csv)],
    }
    fig = Figure(title="entanglement witness", xlabel="T (K)", ylabel="MW_SE")
    fig.hline(0.0)
    fig.points(series.temperatures, series.mw_se, color="#1f77b4", label="MW_SE")
    if series.t_se is not None:
        fig.vline(series.t_se, color="#d62728", label=f"T_SE = {series.t_se:.4g} K")

    return {
        "witness.csv": pipeline_io.csv_table_text(
            ["T_K", "MW_SE"], series.temperatures, series.mw_se
        ),
        "witness_report.json": report,
        "witness.svg": fig,
    }


def _model_params(args, policy: str) -> StarykhParams:
    t0 = args.t0_kelvin if args.t0_kelvin is not None else math.pi * args.j_kelvin / 8.0
    return StarykhParams(
        a_starykh=args.a_starykh,
        t0_kelvin=t0,
        j_over_kb=args.j_kelvin,
        negative_log_policy=policy,
    )


def cmd_qfi(args) -> dict:
    """F_Q(T) of chi'' sources: line-shape closures at --temps, or the reduced
    cuts of --data with the joint line-shape fit that draws their curves."""
    _require_positive_flags(args, "--j-kelvin", "--omega-max", "--z")
    if args.data and args.temps is not None:
        raise ValueError(
            "--temps is for qfi --model; qfi --data reads each temperature from its manifest"
        )
    omega_max = args.omega_max
    if omega_max is None:
        omega_max = math.pi * kelvin_to_mev(args.j_kelvin)
    if args.data:
        cuts, elastic_records, spectra, policies = [], [], [], set()
        for path in args.data:
            manifest, grid, spectrum = pipeline_io.load_dataset(path)
            rec = {"temperature_K": manifest.temperature_K}
            try:
                cut = pipeline_io.reduce_to_chi_imag(grid, manifest, record=rec)
                if not np.all(np.isfinite(cut.values)):
                    raise NonPositiveValue(
                        f"reduced chi'' at T = {cut.temperature:g} K is not finite")
            except (ChainQfiError, ValueError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
            cuts.append(cut)
            elastic_records.append(rec)
            spectra.append(spectrum)
            policies.add(manifest.policies.get("negative_log_policy", "strict"))
        if not args.policy and len(policies) > 1:
            raise ValueError(
                f"manifests disagree on negative_log_policy {sorted(policies)}; "
                "pass --policy explicitly"
            )
        policy = _policy_from_flag(args.policy) if args.policy else policies.pop()
        params = _model_params(args, policy)
        try:
            fit_result = dynamics.fit_starykh(cuts, params)
        except (ChainQfiError, ValueError) as exc:
            raise type(exc)(f"{', '.join(args.data)}: {exc}") from exc
        params = replace(
            params,
            a_starykh=fit_result.parameters["a_starykh"],
            t0_kelvin=fit_result.parameters["t0_kelvin"],
        )
        sources = [(cut.temperature, cut) for cut in cuts]
        mode_fields = {
            "mode": "data",
            "starykh_fit": _as_json(fit_result),
            "elastic_subtraction": elastic_records,
            "inputs": [pipeline_io.file_record(p) for p in args.data] + spectra,
        }
    else:
        temps = _parse_temps(MODEL_TEMPS if args.temps is None else args.temps)
        params = _model_params(args, _policy_from_flag(args.policy or "strict"))
        sources = [(t, lambda w, t=t: dynamics.chi_imag_starykh(w, t, params)) for t in temps]
        mode_fields = {"mode": "model", "model": asdict(params), "inputs": []}

    points, curves = [], []
    grid = np.linspace(0.0, omega_max, 241)
    # the F_Q warnings go in the report, or with any later failure to main
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for t, source in sources:
                points.append(qfi.compute_qfi(source, t=t, omega_max=omega_max))
                curves.append(dynamics.chi_imag_starykh(grid, t, params))
        try:
            scaling = qfi.fit_scaling(points, z=args.z) if len(points) >= 3 else None
        except NonPositiveValue as exc:
            # name the manifest whose cut gave the refused F_Q
            bad = next((path for path, p in zip(args.data or (), points)
                        if not _is_positive(p.f_q)), None)
            if bad is None:
                raise
            raise NonPositiveValue(f"{bad}: {exc}") from exc
        report = {
            **mode_fields,
            "omega_max_meV": omega_max,
            "z": args.z,
            "warnings": [str(w.message) for w in caught],
            "negative_log_policy": params.negative_log_policy,
            "scaling": None if scaling is None else _as_json(scaling),
            "points": [
                {
                    "T_K": p.temperature,
                    "F_Q": p.f_q,
                    "err": p.quadrature_error_estimate,
                    "clipped_count": p.clipped_count,
                    "tail_fraction": p.tail_fraction,
                }
                for p in points
            ],
        }
        if scaling is None:
            report["scaling_skipped_reason"] = (
                f"power-law fit needs at least 3 temperatures, got {len(points)}"
            )

        # chi'' panels: model curve, tanh-weighted area, the cut's points in data mode
        chi_fig = Figure(title="dynamic susceptibility", xlabel="E (meV)", ylabel="chi'' (arb.)")
        palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
        for k, ((t, source), chi_curve) in enumerate(zip(sources, curves)):
            color = palette[k % len(palette)]
            area = qfi.qfi_integrand(grid, t, chi_curve)
            chi_fig.fill_under(grid, area, color=color)
            chi_fig.line(grid, chi_curve, color=color, label=f"T = {t:g} K")
            if args.data:
                mask = (source.e_axis >= 0) & (source.e_axis <= omega_max)
                chi_fig.points(source.e_axis[mask], source.values[mask], color=color, radius=1.8)
        temps = np.array([p.temperature for p in points])
        values = np.array([p.f_q for p in points])
        scaling_fig = Figure(
            title="QFI scaling", xlabel="T (K)", ylabel="F_Q (arb.)", xlog=True, ylog=True
        )
        scaling_fig.points(temps, values, color="#000000", label="F_Q(T)")
        if scaling is not None:
            t_line = np.geomspace(temps.min(), temps.max(), 100)
            scaling_fig.line(
                t_line,
                scaling.amplitude * t_line ** (-scaling.delta_q_over_z),
                color="#d62728",
                label=f"slope = -{scaling.delta_q_over_z:.3g}",
            )

        fit_report = {"fit_report.json": report["starykh_fit"]} if args.data else {}
        return {
            **fit_report,
            "qfi_points.csv": pipeline_io.csv_table_text(
                ["T_K", "F_Q", "err"], temps, values, [p.quadrature_error_estimate for p in points]
            ),
            "qfi_report.json": report,
            "chi_imag.svg": chi_fig,
            "qfi_scaling.svg": scaling_fig,
        }
    except Exception:
        _reissue(caught)
        raise


def cmd_spinon(args) -> dict:
    _require_positive_flags(args, "--j-kelvin")
    manifest, grid, spectrum = pipeline_io.load_dataset(args.data)
    lattice_c = manifest.lattice_c_A
    if lattice_c is None:
        raise ValueError(
            f"manifest {args.data} has no lattice_c_A; the chain lattice parameter "
            "is required for the continuum bounds"
        )
    if grid.q_axis.size < 3:
        raise ValueError(
            f"{spectrum['path']}: Q_invA has {grid.q_axis.size} value(s); the "
            "powder-to-1D conversion needs at least 3"
        )
    n_e = int(np.count_nonzero(grid.e_axis >= 0))
    if n_e < 2:
        # the map draws cells between neighbouring E >= 0 rows
        raise ValueError(
            f"{spectrum['path']}: E_meV has {n_e} value(s) >= 0; the spinon map "
            "needs at least 2"
        )

    converted = spinon.powder_to_1d(grid)
    j_mev = kelvin_to_mev(args.j_kelvin)
    lower, upper = spinon.two_spinon_bounds(converted.q_axis, j_mev, lattice_c)
    zone_center_q = math.pi / lattice_c
    e_upper_max = float(spinon.two_spinon_bounds(zone_center_q, j_mev, lattice_c)[1])
    report = {
        "j_over_kb_K": args.j_kelvin,
        "j_meV": j_mev,
        "lattice_c_A": lattice_c,
        "zone_center_q_invA": zone_center_q,
        "upper_bound_at_zone_center_meV": e_upper_max,
        "inputs": [pipeline_io.file_record(args.data), spectrum],
    }
    fig = Figure(title="spinon continuum", xlabel="Q (1/A)", ylabel="E (meV)")
    positive = converted.e_axis >= 0
    fig.cells(converted.q_axis, converted.e_axis[positive], converted.intensity[positive])
    fig.line(converted.q_axis, lower, color="#d62728", label="lower bound")
    fig.line(converted.q_axis, upper, color="#000000", label="upper bound")
    fig.annotate(f"E_u(pi/c) = {e_upper_max:.4g} meV", zone_center_q, e_upper_max)

    return {"s1d.csv": converted, "spinon_report.json": report, "spinon_overlay.svg": fig}


def cmd_synth(args) -> dict:
    temps = _parse_temps(args.temps)
    policy = _policy_from_flag(args.policy or "strict")
    chain = ChainParameters(
        j_over_kb=args.j_kelvin,
        g_factor=args.g,
        c0=args.c0,
        c1=args.c1,
        lattice_c=args.lattice_c,
    )
    starykh = _model_params(args, policy)
    config = pipeline_io.SynthConfig(
        seed=args.seed,
        noise_level=args.noise,
        chi_noise_level=args.chi_noise,
        elastic_amplitude=args.elastic_amp,
        flat_background=args.flat_bg,
    )
    return pipeline_io.synthetic_dataset(chain, starykh, temps, config)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _flag_values(argv: list[str]) -> list[str]:
    """``argv`` with each negative number, or comma list of numbers, that
    follows a long flag joined to it: argparse reads "-1e308", "-inf" or
    "-0.5,1" as a flag, since its negative-number pattern has no exponent or
    list form, so "--g -1e308" becomes "--g=-1e308"."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and flag != "--" and "=" not in flag and token.startswith("-"):
            try:
                [float(part) for part in token.split(",")]
            except ValueError:
                pass
            else:
                out[-1] = f"{flag}={token}"
                continue
        out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    """argparse, with its errors as the one JSON error line, exit 2."""

    def error(self, message):
        self.exit(2, _error_line("ArgumentError", message, ()) + "\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress timestamps so outputs are byte-identical across runs",
    )
    j_kelvin = argparse.ArgumentParser(add_help=False)
    j_kelvin.add_argument("--j-kelvin", type=float, default=3.1, help="exchange J/k_B in K")
    line_shape = argparse.ArgumentParser(add_help=False)
    line_shape.add_argument(
        "--a-starykh", type=float, default=0.00065, help="line-shape amplitude"
    )
    line_shape.add_argument(
        "--t0-kelvin", type=float, default=None, help="high-energy cutoff (default pi*J/8)"
    )
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument(
        "--policy",
        choices=("strict", "absolute-value"),
        default=None,
        help="negative-log policy for temperatures above the cutoff",
    )

    parser = _Parser(
        prog="chainqfi",
        description="Spin-1/2 chain analysis: susceptibility fits, entanglement "
        "witness, dynamic susceptibility, and quantum Fisher information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-susceptibility", parents=[common], help="fit chi(T) and extract J, g"
    )
    p.add_argument("chi_csv", help="input chi.csv")
    p.add_argument("--j0", type=float, default=3.0, help="initial J/k_B (K)")
    p.add_argument("--g0", type=float, default=2.0, help="initial g factor")
    p.add_argument(
        "--freeze",
        action="append",
        metavar="NAME=VALUE",
        help="freeze a parameter (J, g, C0, C1) at the given value; repeatable",
    )
    p.add_argument(
        "--fit-c1",
        action="store_true",
        help="free the diamagnetic constant (degenerate with C0 unless --impurity-curie)",
    )
    p.add_argument(
        "--impurity-curie",
        action="store_true",
        help="model the impurity term as c0/T instead of a constant",
    )
    p.set_defaults(func=cmd_fit_susceptibility)

    p = sub.add_parser("witness", parents=[common], help="entanglement witness from chi(T)")
    p.add_argument("chi_csv", help="input chi.csv")
    p.add_argument("--g", type=float, required=True, help="Lande g factor")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "qfi",
        parents=[common, policy, j_kelvin, line_shape],
        help="quantum Fisher information and scaling fit",
    )
    p.add_argument(
        "--omega-max",
        type=float,
        default=None,
        help="upper integration limit in meV (default: pi * J)",
    )
    p.add_argument("--z", type=float, default=1.0, help="dynamic critical exponent")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", action="store_true", help="pure-model evaluation")
    group.add_argument("--data", nargs="+", metavar="MANIFEST", help="dataset manifests")
    p.add_argument(
        "--temps",
        help=f"comma-separated temperatures, --model only (default {MODEL_TEMPS}, "
        "which the default strict policy admits)",
    )
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser(
        "spinon", parents=[common, j_kelvin], help="powder-to-1D conversion with continuum bounds"
    )
    p.add_argument("--data", required=True, metavar="MANIFEST", help="dataset manifest")
    p.set_defaults(func=cmd_spinon)

    p = sub.add_parser(
        "synth",
        parents=[common, policy, j_kelvin, line_shape],
        help="generate a synthetic dataset",
    )
    p.add_argument("--g", type=float, default=2.1)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--lattice-c", type=float, default=5.32)
    p.add_argument("--temps", default="0.04,0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="counting-noise scale")
    p.add_argument("--chi-noise", type=float, default=0.0, help="relative chi noise")
    p.add_argument("--elastic-amp", type=float, default=0.0)
    p.add_argument("--flat-bg", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    """Run one command, then write what it returned; a command that raises
    writes nothing. Warnings are held back: on success they are re-issued as
    raised; on failure they join the one JSON error line."""
    args = build_parser().parse_args(_flag_values(sys.argv[1:] if argv is None else argv))
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            outputs = args.func(args)
            if outputs:
                stamp = None if args.deterministic else datetime.now(timezone.utc).isoformat()
                pipeline_io.write_outputs(args.out, outputs, stamp)
        except ChainQfiError as exc:
            return_code, error = exc.exit_code, exc
        except (OSError, ValueError) as exc:
            return_code, error = 2, exc
    if error is None:
        _reissue(caught)
        return 0
    print(_error_line(type(error).__name__, str(error), caught), file=sys.stderr)
    return return_code


if __name__ == "__main__":
    sys.exit(main())
