"""Timing wrappers around chainqfi's public functions, for traced passes.

``install()`` replaces module attributes (``dynamics.chi_imag_starykh``,
``pipeline_io.read_spectrum_csv``, ``svgplot.Figure.render``, ...) with
wrappers that record a span per call. Every call site in chainqfi looks
these names up through the module at call time, so the wrappers see every
call; chainqfi itself is not modified.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none). Spans stay in memory and the worker writes
them out when it ends. ``specfun`` functions are only counted: timing their
~300k scalar calls would swamp the trace.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

from chainqfi import dynamics, fitter, pipeline_io, qfi, specfun, spinon, suscept, svgplot
from chainqfi.core import EnergyCut


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.counts[name + ".calls"] += 1
        if after is not None:
            after(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _count_only(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _least_squares(tracer: Tracer, fn):
    """Counts residual evaluations and files each one as a span of the
    fit that owns the residual (dynamics.fit_starykh or
    suscept.fit_susceptibility), so fitter self time is the LM engine alone."""

    @functools.wraps(fn)
    def wrapper(residual_fn, *args, **kwargs):
        owner = tracer.current() or "fitter"

        def residual(params):
            tracer.counts["fitter.residual_evals"] += 1
            return tracer.call(owner + ".residual", residual_fn, params)

        result = tracer.call("fitter.least_squares", fn, residual, *args, **kwargs)
        tracer.counts["fitter.least_squares.calls"] += 1
        tracer.counts["fitter.iterations"] += int(result.iterations)
        tracer.counts["fitter.fallback_runs"] += "nelder-mead" in result.message
        return result

    return wrapper


def _compute_qfi(tracer: Tracer, fn):
    """Counts model-integrand evaluations when the source is a closure."""

    @functools.wraps(fn)
    def wrapper(source, *args, **kwargs):
        if not isinstance(source, EnergyCut):
            chi_fn = source

            def source(w):
                tracer.counts["qfi.model_integrand_points"] += 1
                return chi_fn(w)

        result = tracer.call("qfi.compute_qfi", fn, source, *args, **kwargs)
        tracer.counts["qfi.compute_qfi.calls"] += 1
        return result

    return wrapper


def _points(counts, args, kwargs, result):
    counts["dynamics.chi_imag_starykh.points"] += int(np.size(_arg(args, kwargs, 0, "omega")))


def _rows(counts, args, kwargs, result):
    counts["pipeline_io.read_spectrum_csv.rows"] += int(result.intensity.size)


def _csv_bytes(counts, args, kwargs, result):
    counts["pipeline_io.write_spectrum_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _cells(counts, args, kwargs, result):
    counts["spinon.forward_powder_average.cells"] += int(result.intensity.size)


def _svg_bytes(counts, args, kwargs, result):
    counts["svgplot.render.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def install() -> Tracer:
    """Wrap chainqfi's layer functions; returns the tracer that records them."""
    tr = Tracer()
    targets = [
        (dynamics, "chi_imag_starykh", "dynamics.chi_imag_starykh", _points),
        (dynamics, "sqw_starykh", "dynamics.sqw_starykh", None),
        (dynamics, "fit_starykh", "dynamics.fit_starykh", None),
        (qfi, "fit_scaling", "qfi.fit_scaling", None),
        (pipeline_io, "read_spectrum_csv", "pipeline_io.read_spectrum_csv", _rows),
        (pipeline_io, "read_susceptibility_csv", "pipeline_io.read_susceptibility_csv", None),
        (pipeline_io, "write_spectrum_csv", "pipeline_io.write_spectrum_csv", _csv_bytes),
        (pipeline_io, "write_susceptibility_csv", "pipeline_io.write_susceptibility_csv", None),
        (pipeline_io, "sha256_of", "pipeline_io.sha256_of", None),
        (pipeline_io, "generate_synthetic_dataset", "pipeline_io.generate_synthetic_dataset", None),
        (pipeline_io, "integrate_q_window", "pipeline_io.integrate_q_window", None),
        (pipeline_io, "subtract_elastic_line", "pipeline_io.subtract_elastic_line", None),
        (pipeline_io, "apply_fluctuation_dissipation", "pipeline_io.apply_fluctuation_dissipation", None),
        (spinon, "powder_to_1d", "spinon.powder_to_1d", None),
        (spinon, "forward_powder_average", "spinon.forward_powder_average", _cells),
        (suscept, "fit_susceptibility", "suscept.fit_susceptibility", None),
        (suscept, "find_tmax_model", "suscept.find_tmax_model", None),
        (suscept, "witness_mwse", "suscept.witness_mwse", None),
        # pipeline_io imported chi_full by name, so both references are wrapped
        (suscept, "chi_full", "suscept.chi_full", None),
        (pipeline_io, "chi_full", "suscept.chi_full", None),
        (svgplot.Figure, "render", "svgplot.render", _svg_bytes),
    ]
    for owner, attr, name, after in targets:
        setattr(owner, attr, _span(tr, name, getattr(owner, attr), after))
    # a bound classmethod: the wrapper must not receive the class twice
    load = _span(tr, "pipeline_io.manifest_load", pipeline_io.DatasetManifest.load)
    pipeline_io.DatasetManifest.load = staticmethod(load)
    fitter.least_squares = _least_squares(tr, fitter.least_squares)
    qfi.compute_qfi = _compute_qfi(tr, qfi.compute_qfi)
    for attr in ("log_gamma_complex", "gamma_ratio_im"):
        setattr(specfun, attr, _count_only(tr, f"specfun.{attr}", getattr(specfun, attr)))
    return tr
