import csv
import functools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainqfi import pipeline_io
from chainqfi.core import ChainParameters, EnergyCut, SpectrumGrid
from chainqfi.dynamics import StarykhParams, chi_imag_starykh, fit_starykh
from chainqfi.errors import (
    DuplicateAbscissa,
    ElasticWindowMissing,
    EmptyFile,
    IncompleteGrid,
    ParseError,
    WindowOutsideGrid,
)
from chainqfi.pipeline_io import (
    DatasetManifest,
    SynthConfig,
    apply_fluctuation_dissipation,
    generate_synthetic_dataset,
    integrate_q_window,
    load_dataset,
    read_spectrum_csv,
    reduce_to_chi_imag,
    sha256_of,
    read_susceptibility_csv,
    subtract_elastic_line,
    write_spectrum_csv,
    write_susceptibility_csv,
)
from chainqfi.suscept import SusceptibilityCurve, fit_susceptibility
from chainqfi.svgplot import Figure


MANIFEST = DatasetManifest(
    sample="test",
    temperature_K=0.5,
    resolution_fwhm_meV=0.0175,
    q_window=(0.4, 1.1),
    lattice_c_A=5.32,
)


class TestSusceptibilityCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n1.0,0.01,0.001\n2.0,0.02,0.001\n3.0,0.03,0.001\n")
        curve = read_susceptibility_csv(path)
        assert len(curve) == 3
        assert curve.chi[1] == 0.02

    def test_unsorted_rows_returned_sorted(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n3.0,0.03,0\n1.0,0.01,0\n2.0,0.02,0\n")
        curve = read_susceptibility_csv(path)
        np.testing.assert_array_equal(curve.temperatures, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(curve.chi, [0.01, 0.02, 0.03])

    def test_negative_temperature_names_row(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n1.0,0.01,0\n-2.0,0.02,0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_susceptibility_csv(path)

    def test_duplicate_temperature(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n1.0,0.01,0\n1.0,0.02,0\n")
        with pytest.raises(DuplicateAbscissa):
            read_susceptibility_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            read_susceptibility_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n")
        with pytest.raises(EmptyFile):
            read_susceptibility_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("temp,chi,err\n1.0,0.01,0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_susceptibility_csv(path)

    def test_garbage_number(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n1.0,abc,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_susceptibility_csv(path)

    def test_write_read_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0.3, 300.0, 20))
        curve = SusceptibilityCurve(t, rng.normal(size=20) * 1e-3, np.abs(rng.normal(size=20)) * 1e-5)
        path = tmp_path / "chi.csv"
        write_susceptibility_csv(path, curve)
        back = read_susceptibility_csv(path)
        np.testing.assert_array_equal(back.temperatures, curve.temperatures)
        np.testing.assert_array_equal(back.chi, curve.chi)
        np.testing.assert_array_equal(back.sigma, curve.sigma)


class TestSpectrumCsv:
    def test_complete_2x2(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text(
            "Q_invA,E_meV,intensity,error\n"
            "0.4,0.1,1.0,0.1\n0.6,0.1,2.0,0.1\n0.4,0.2,3.0,0.1\n0.6,0.2,4.0,0.1\n"
        )
        grid = read_spectrum_csv(path, MANIFEST)
        assert grid.intensity.shape == (2, 2)
        assert grid.intensity[1, 1] == 4.0
        assert grid.temperature == 0.5

    def test_incomplete_grid(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text(
            "Q_invA,E_meV,intensity,error\n0.4,0.1,1.0,0.1\n0.6,0.1,2.0,0.1\n0.4,0.2,3.0,0.1\n"
        )
        with pytest.raises(IncompleteGrid):
            read_spectrum_csv(path, MANIFEST)

    def test_ambiguous_duplicate(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text(
            "Q_invA,E_meV,intensity,error\n0.4,0.1,1.0,0.1\n0.4,0.1,9.0,0.1\n"
        )
        with pytest.raises(ParseError, match="ambiguous"):
            read_spectrum_csv(path, MANIFEST)

    def test_write_read_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = SpectrumGrid(
            q_axis=np.sort(rng.uniform(0.1, 2.0, 7)),
            e_axis=np.sort(rng.uniform(-0.2, 1.0, 5)),
            intensity=rng.normal(size=(5, 7)) * 1e3,
            errors=np.abs(rng.normal(size=(5, 7))),
            temperature=0.5,
        )
        path = tmp_path / "sqe.csv"
        write_spectrum_csv(path, grid)
        back = read_spectrum_csv(path, MANIFEST)
        np.testing.assert_array_equal(back.q_axis, grid.q_axis)
        np.testing.assert_array_equal(back.e_axis, grid.e_axis)
        np.testing.assert_array_equal(back.intensity, grid.intensity)
        np.testing.assert_array_equal(back.errors, grid.errors)

    def test_bytes_match_per_cell_repr(self, tmp_path):
        rng = np.random.default_rng(11)
        intensity = rng.normal(size=(6, 9)) * 10.0 ** rng.integers(-8, 8, size=(6, 9))
        intensity[0, :4] = [-0.0, 1e-300, 42.0, -7.0]
        errors = np.abs(rng.normal(size=(6, 9)))
        errors[1, :3] = [0.0, 1e300, 3.0]
        grid = SpectrumGrid(
            q_axis=np.array([0.1, 0.25, 0.5, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0]),
            e_axis=np.array([-0.5, -0.0, 1e-300, 0.1, 1.0, 2.0]),
            intensity=intensity,
            errors=errors,
            temperature=0.5,
        )
        expected = "Q_invA,E_meV,intensity,error\n" + "".join(
            f"{float(q)!r},{float(e)!r},"
            f"{float(grid.intensity[i, j])!r},{float(grid.errors[i, j])!r}\n"
            for i, e in enumerate(grid.e_axis)
            for j, q in enumerate(grid.q_axis)
        )
        path = tmp_path / "sqe.csv"
        write_spectrum_csv(path, grid)
        assert path.read_bytes() == expected.encode("utf-8")
        for token in (",-0.0,", ",1e-300,", ",42.0,", ",1e+300\n"):
            assert token in expected


class TestIntegrateQWindow:
    def test_constant_intensity(self):
        q = np.linspace(0.0, 1.5, 16)  # 0.1 steps
        e = np.array([0.1, 0.2])
        grid = SpectrumGrid(q, e, np.full((2, 16), 2.0), np.zeros((2, 16)), 1.0)
        cut = integrate_q_window(grid, 0.4, 1.1)
        np.testing.assert_allclose(cut.values, 2.0 * 0.7, rtol=1e-12)

    def test_linear_intensity(self):
        q = np.linspace(0.0, 1.0, 101)
        e = np.array([0.1])
        grid = SpectrumGrid(q, e, q[None, :], np.zeros((1, 101)), 1.0)
        cut = integrate_q_window(grid, 0.0, 1.0)
        assert cut.values[0] == pytest.approx(0.5, rel=1e-12)

    def test_window_outside_grid(self):
        q = np.linspace(0.0, 1.1, 12)
        grid = SpectrumGrid(q, [0.1], np.ones((1, 12)), np.zeros((1, 12)), 1.0)
        with pytest.raises(WindowOutsideGrid):
            integrate_q_window(grid, 5.0, 6.0)

    def test_additive_over_adjacent_windows(self):
        rng = np.random.default_rng(8)
        q = np.linspace(0.0, 1.2, 25)
        grid = SpectrumGrid(q, [0.1], rng.uniform(size=(1, 25)), np.zeros((1, 25)), 1.0)
        whole = integrate_q_window(grid, 0.0, 1.2).values
        left = integrate_q_window(grid, 0.0, 0.6).values
        right = integrate_q_window(grid, 0.6, 1.2).values
        np.testing.assert_allclose(left + right, whole, rtol=1e-12)

    def test_linearity_in_intensity(self):
        q = np.linspace(0.0, 1.2, 25)
        base = np.random.default_rng(9).uniform(size=(1, 25))
        g1 = SpectrumGrid(q, [0.1], base, np.zeros((1, 25)), 1.0)
        g2 = SpectrumGrid(q, [0.1], 4.0 * base, np.zeros((1, 25)), 1.0)
        np.testing.assert_allclose(
            integrate_q_window(g2, 0.2, 1.0).values,
            4.0 * integrate_q_window(g1, 0.2, 1.0).values,
            rtol=1e-12,
        )


FWHM = 0.0175
SIGMA_G = FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def elastic_cut(amp, const, extra=None):
    e = np.linspace(-0.195, 1.005, 121)
    values = amp * np.exp(-0.5 * (e / SIGMA_G) ** 2) + const
    if extra is not None:
        values = values + extra(e)
    return EnergyCut(e, values, np.full_like(e, 0.5), 0.5)


class TestSubtractElasticLine:
    def test_self_subtraction(self):
        amp = 1000.0
        cut = elastic_cut(amp, 12.0)
        record = {}
        out = subtract_elastic_line(cut, FWHM, record=record)
        assert np.max(np.abs(out.values)) < 1e-6 * amp
        assert record["elastic_amplitude"] == pytest.approx(amp, rel=1e-9)
        assert record["elastic_constant"] == pytest.approx(12.0, rel=1e-9)

    def test_zero_elastic_amplitude_removes_flat_level(self):
        cut = elastic_cut(0.0, 7.5)
        out = subtract_elastic_line(cut, FWHM)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_positive_only_axis_rejected(self):
        e = np.linspace(0.2, 1.0, 50)
        cut = EnergyCut(e, np.ones_like(e), np.zeros_like(e), 0.5)
        with pytest.raises(ElasticWindowMissing):
            subtract_elastic_line(cut, FWHM)

    def test_idempotent_within_tolerance(self):
        amp = 500.0
        cut = elastic_cut(amp, 3.0, extra=lambda e: 5.0 * np.exp(-((e - 0.4) ** 2) / 0.05))
        once = subtract_elastic_line(cut, FWHM)
        twice = subtract_elastic_line(once, FWHM)
        assert np.max(np.abs(twice.values - once.values)) < 1e-6 * amp + 0.05

    def test_errors_unchanged(self):
        cut = elastic_cut(10.0, 1.0)
        out = subtract_elastic_line(cut, FWHM)
        np.testing.assert_array_equal(out.errors, cut.errors)

    @staticmethod
    def noisy_cut(scale):
        rng = np.random.default_rng(6)
        cut = elastic_cut(300.0, 4.0, extra=lambda e: rng.normal(size=e.size))
        return EnergyCut(cut.e_axis, cut.values, scale * rng.uniform(0.2, 2.0, cut.e_axis.size),
                         0.5)

    def test_fit_matches_the_lstsq_oracle(self):
        cut = self.noisy_cut(1.0)
        record = {}
        subtract_elastic_line(cut, FWHM, record=record)
        e = cut.e_axis
        sel = (np.abs(e) <= 2 * FWHM) | (e >= np.sort(e)[-13])
        w = 1.0 / cut.errors[sel]
        design = np.column_stack((np.exp(-0.5 * (e[sel] / SIGMA_G) ** 2), np.ones(sel.sum())))
        (amp, const), *_ = np.linalg.lstsq(design * w[:, None], cut.values[sel] * w, rcond=None)
        assert record["elastic_amplitude"] == pytest.approx(amp, rel=1e-12)
        assert record["elastic_constant"] == pytest.approx(const, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_no_sigma_overflows_its_weight(self, scale):
        """Weights 1/sigma of 1e170 square past the float range unless they
        are scaled first; only their ratios matter."""
        fits = []
        for s in (1.0, scale):
            record = {}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                subtract_elastic_line(self.noisy_cut(s), FWHM, record=record)
            fits.append(record)
        assert fits[1]["elastic_amplitude"] == pytest.approx(fits[0]["elastic_amplitude"],
                                                             rel=1e-12)
        assert fits[1]["elastic_constant"] == pytest.approx(fits[0]["elastic_constant"],
                                                            rel=1e-12)

    def test_every_sigma_infinite_fits_nothing(self):
        cut = self.noisy_cut(1.0)
        cut = EnergyCut(cut.e_axis, cut.values, np.full_like(cut.values, np.inf), 0.5)
        record = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = subtract_elastic_line(cut, FWHM, record=record)
        assert record == {"elastic_amplitude": 0.0, "elastic_constant": 0.0}
        np.testing.assert_array_equal(out.values, cut.values)

    def test_line_flat_over_the_window_leaves_the_constant(self):
        """A resolution so wide that the line is 1 at every bin: the constant
        alone fits, as well as any split with the line would."""
        cut = self.noisy_cut(1.0)
        record = {}
        out = subtract_elastic_line(cut, 1e10, record=record)
        w2 = 1.0 / cut.errors**2
        assert record["elastic_amplitude"] == 0.0
        assert record["elastic_constant"] == pytest.approx(
            (w2 @ cut.values) / w2.sum(), rel=1e-12
        )
        np.testing.assert_allclose(out.values, cut.values - record["elastic_constant"])


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        m = DatasetManifest(
            sample="cup",
            temperature_K=0.04,
            resolution_fwhm_meV=0.0175,
            q_window=(0.4, 1.1),
            lattice_c_A=5.32,
            calibration=123.5,
            inputs=[{"path": "sqe.csv", "sha256": "0" * 64}],
        )
        path = tmp_path / "manifest.json"
        m.save(path)
        back = DatasetManifest.load(path)
        assert back == m
        keys = set(json.loads(path.read_text()))
        assert keys == {
            "sample", "temperature_K", "resolution_fwhm_meV", "q_window",
            "lattice_c_A", "calibration", "policies", "inputs",
        }

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DatasetManifest(sample="x", temperature_K=1.0,
                            resolution_fwhm_meV=0.0175, q_window=(1.1, 0.4))

    def test_inputs_need_hashes(self):
        with pytest.raises(ValueError):
            DatasetManifest(sample="x", temperature_K=1.0,
                            resolution_fwhm_meV=0.0175, q_window=(0.4, 1.1),
                            inputs=[{"path": "sqe.csv"}])

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"sample": "x"}))
        with pytest.raises(ParseError):
            DatasetManifest.load(path)


CHAIN = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
STARYKH = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)


def small_config(**overrides):
    defaults = dict(
        q_axis=np.linspace(0.15, 1.5, 28),
        e_axis=np.linspace(-0.195, 1.005, 61),
        chi_temperatures=np.geomspace(0.5, 300.0, 40),
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestSyntheticDataset:
    def test_deterministic_output(self, tmp_path):
        cfg = small_config(seed=7, noise_level=1.0, chi_noise_level=0.01)
        a = generate_synthetic_dataset(CHAIN, STARYKH, [0.5], tmp_path / "a", config=cfg)
        b = generate_synthetic_dataset(CHAIN, STARYKH, [0.5], tmp_path / "b", config=cfg)
        for key in ("chi_csv",):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()
        assert (
            Path(a["spectra"][0]["sqe_csv"]).read_bytes()
            == Path(b["spectra"][0]["sqe_csv"]).read_bytes()
        )

    def test_seed_changes_output(self, tmp_path):
        a = generate_synthetic_dataset(
            CHAIN, STARYKH, [0.5], tmp_path / "a",
            config=small_config(seed=1, noise_level=1.0),
        )
        b = generate_synthetic_dataset(
            CHAIN, STARYKH, [0.5], tmp_path / "b",
            config=small_config(seed=2, noise_level=1.0),
        )
        assert (
            Path(a["spectra"][0]["sqe_csv"]).read_bytes()
            != Path(b["spectra"][0]["sqe_csv"]).read_bytes()
        )

    def test_negative_temperature_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(CHAIN, STARYKH, [-0.5], tmp_path, config=small_config())

    def test_zero_noise_full_pipeline_recovers_parameters(self, tmp_path):
        written = generate_synthetic_dataset(
            CHAIN, STARYKH, [0.04, 0.5], tmp_path, config=small_config()
        )
        # susceptibility branch
        curve = read_susceptibility_csv(written["chi_csv"])
        res = fit_susceptibility(
            curve, ChainParameters(j_over_kb=2.5, g_factor=2.0), frozen={"c0", "c1"}
        )
        assert res.parameters["j_over_kb"] == pytest.approx(3.1, rel=1e-6)
        assert res.parameters["g_factor"] == pytest.approx(2.1, rel=1e-6)
        # spectrum branch: integrate, convert, undo calibration, joint fit
        cuts = []
        for entry in written["spectra"]:
            manifest = DatasetManifest.load(entry["manifest"])
            grid = read_spectrum_csv(entry["sqe_csv"], manifest)
            cut = integrate_q_window(grid, *manifest.q_window)
            cut = apply_fluctuation_dissipation(cut)
            cuts.append(
                EnergyCut(
                    e_axis=cut.e_axis,
                    values=cut.values / manifest.calibration,
                    errors=cut.errors / manifest.calibration,
                    temperature=cut.temperature,
                )
            )
        start = StarykhParams(a_starykh=4e-4, t0_kelvin=1.0, j_over_kb=3.1)
        res = fit_starykh(cuts, start)
        assert res.parameters["a_starykh"] == pytest.approx(0.00065, rel=1e-6)
        assert res.parameters["t0_kelvin"] == pytest.approx(STARYKH.t0_kelvin, rel=1e-6)

    def test_calibration_matches_model_exactly(self, tmp_path):
        written = generate_synthetic_dataset(
            CHAIN, STARYKH, [0.5], tmp_path, config=small_config()
        )
        entry = written["spectra"][0]
        manifest = DatasetManifest.load(entry["manifest"])
        grid = read_spectrum_csv(entry["sqe_csv"], manifest)
        cut = apply_fluctuation_dissipation(integrate_q_window(grid, *manifest.q_window))
        model = chi_imag_starykh(cut.e_axis, 0.5, STARYKH)
        np.testing.assert_allclose(cut.values / manifest.calibration, model, rtol=1e-9)


class TestManifestRules:
    GOOD = dict(
        sample="x", temperature_K=0.5, resolution_fwhm_meV=0.0175, q_window=(0.4, 1.1),
        lattice_c_A=5.32, calibration=2.0, inputs=[{"path": "sqe.csv", "sha256": "0" * 64}],
    )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample", None),
            ("temperature_K", None),
            ("temperature_K", float("nan")),
            ("temperature_K", float("inf")),
            ("temperature_K", 0.0),
            ("temperature_K", True),
            ("resolution_fwhm_meV", -0.01),
            ("calibration", 0),
            ("calibration", -1.0),
            ("calibration", "1.0"),
            ("lattice_c_A", -5.32),
            ("q_window", (0.4,)),
            ("q_window", (0.4, 1.1, 2.0)),
            ("q_window", (0.4, float("nan"))),
            ("q_window", "0.4,1.1"),
            ("policies", None),
            ("policies", {"negative_log_policy": "lenient"}),
            ("inputs", None),
            ("inputs", [{"path": "sqe.csv", "sha256": None}]),
        ],
    )
    def test_construction_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetManifest(**{**self.GOOD, field: value})

    def test_json_integers_are_floats(self):
        m = DatasetManifest(**{**self.GOOD, "calibration": 3, "q_window": [0, 1]})
        assert m.calibration == 3.0 and isinstance(m.calibration, float)
        assert m.q_window == (0.0, 1.0)

    @pytest.mark.parametrize("inputs", [[], [{"path": "a", "sha256": "b"}] * 2])
    def test_load_requires_exactly_one_input(self, tmp_path, inputs):
        path = tmp_path / "manifest.json"
        DatasetManifest(**{**self.GOOD, "inputs": inputs}).save(path)
        with pytest.raises(ParseError, match="inputs must hold exactly one entry"):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("text", ["{", "[1, 2]", "3"])
    def test_load_names_the_file_for_malformed_json(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="manifest.json"):
            DatasetManifest.load(path)

    def test_load_reports_field_with_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        DatasetManifest(**self.GOOD).save(path)
        data = json.loads(path.read_text())
        data["calibration"] = 0
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as info:
            DatasetManifest.load(path)
        assert str(path) in str(info.value) and "calibration" in str(info.value)


class TestLoadAndReduce:
    @pytest.fixture
    def spectrum(self, tmp_path):
        cfg = small_config(elastic_amplitude=50.0, flat_background=2.0)
        written = generate_synthetic_dataset(CHAIN, STARYKH, [0.5], tmp_path, config=cfg)
        return written["spectra"][0]

    def test_loader_returns_verified_hash(self, spectrum):
        data = load_dataset(spectrum["manifest"])
        assert data.spectrum_record == {
            "path": spectrum["sqe_csv"], "sha256": sha256_of(spectrum["sqe_csv"]),
        }
        assert data.grid.temperature == 0.5
        assert data.manifest == DatasetManifest.load(spectrum["manifest"])

    def test_loader_rejects_tampered_spectrum(self, spectrum):
        with open(spectrum["sqe_csv"], "a") as fh:
            fh.write("\n")
        with pytest.raises(ParseError, match="sha256"):
            load_dataset(spectrum["manifest"])

    def test_reduction_is_the_step_by_step_chain(self, spectrum):
        data = load_dataset(spectrum["manifest"])
        m = data.manifest
        record = {}
        cut = reduce_to_chi_imag(data.grid, m, record=record)
        step = integrate_q_window(data.grid, *m.q_window)
        step = subtract_elastic_line(step, m.resolution_fwhm_meV)
        step = apply_fluctuation_dissipation(step)
        np.testing.assert_array_equal(cut.values, step.values / m.calibration)
        np.testing.assert_array_equal(cut.errors, step.errors / m.calibration)
        assert set(record) == {"elastic_amplitude", "elastic_constant"}


# --- whole-array readers: round trip and single-fault files -------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
AXIS = st.lists(FINITE, min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def spectra(draw):
    q, e = draw(AXIS), draw(AXIS)
    cells = len(q) * len(e)
    intensity = draw(st.lists(FINITE, min_size=cells, max_size=cells))
    errors = draw(st.lists(FINITE.map(abs), min_size=cells, max_size=cells))
    return SpectrumGrid(
        q_axis=q,
        e_axis=e,
        intensity=np.reshape(intensity, (len(e), len(q))),
        errors=np.reshape(errors, (len(e), len(q))),
        temperature=0.5,
    )


def bits(a):
    return np.asarray(a).tobytes(), np.shape(a)


class TestSpectrumReaderRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spectra(), st.randoms(use_true_random=False))
    def test_shuffled_rows_blank_lines_and_crlf(self, tmp_path_factory, grid, rnd):
        path = tmp_path_factory.mktemp("rt") / "sqe.csv"
        write_spectrum_csv(path, grid)
        header, *rows = path.read_text().splitlines()
        rnd.shuffle(rows)
        for _ in range(rnd.randint(0, 4)):
            rows.insert(rnd.randint(0, len(rows)), rnd.choice(["", " ", " , ,", "\t"]))
        lines = [header] + rows
        text = "".join(line + rnd.choice(["\n", "\r\n"]) for line in lines)
        path.write_bytes(text.encode())
        back = read_spectrum_csv(path, MANIFEST)
        for name in ("q_axis", "e_axis", "intensity", "errors"):
            assert bits(getattr(back, name)) == bits(getattr(grid, name)), name


GOOD_ROWS = [
    "0.4,0.1,1.0,0.1", "0.6,0.1,2.0,0.1", "0.8,0.1,2.5,0.1",
    "0.4,0.2,3.0,0.1", "0.6,0.2,4.0,0.1", "0.8,0.2,4.5,0.1",
]


def with_row(k, text):
    """GOOD_ROWS with data row ``k`` (file line k + 2) replaced."""
    rows = list(GOOD_ROWS)
    rows[k] = text
    return rows


SPECTRUM_FAULTS = {
    "wrong field count": (with_row(1, "0.6,0.1,2.0"), ParseError, 3, "expected 4 fields, got 3"),
    "non-numeric cell": (with_row(2, "0.8,0.1,abc,0.1"), ParseError, 4,
                         "cannot parse intensity='abc'"),
    "inf": (with_row(3, "0.4,0.2,inf,0.1"), ParseError, 5, "intensity='inf' is not finite"),
    "negative error": (with_row(4, "0.6,0.2,4.0,-0.5"), ParseError, 6,
                       "error must be nonnegative, got -0.5"),
    "exact duplicate": (GOOD_ROWS + [GOOD_ROWS[1]], ParseError, 8,
                        "Q=0.6, E=0.1 repeated: duplicate cell"),
    "ambiguous duplicate": (with_row(4, "0.4,0.1,9.0,0.1") + [GOOD_ROWS[4]], ParseError, 6,
                            "Q=0.4, E=0.1 repeated: ambiguous duplicate"),
    "short grid": (GOOD_ROWS[:-1], IncompleteGrid, None, "5 cells for a 2 x 3 grid"),
}


class TestSpectrumReaderFaults:
    def test_good_rows_read(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text("\n".join(["Q_invA,E_meV,intensity,error", *GOOD_ROWS]) + "\n")
        grid = read_spectrum_csv(path, MANIFEST)
        np.testing.assert_array_equal(grid.intensity, [[1.0, 2.0, 2.5], [3.0, 4.0, 4.5]])

    @pytest.mark.parametrize("fault", list(SPECTRUM_FAULTS))
    def test_single_fault(self, tmp_path, fault):
        rows, cls, line, text = SPECTRUM_FAULTS[fault]
        path = tmp_path / "sqe.csv"
        path.write_text("\n".join(["Q_invA,E_meV,intensity,error", *rows]) + "\n")
        with pytest.raises(cls) as info:
            read_spectrum_csv(path, MANIFEST)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert text in message
        if line is not None:
            assert info.value.line == line and f": line {line}: " in message

    @pytest.mark.parametrize(
        "extra, line, cell",
        [
            ([0, 5], 8, "Q=0.4, E=0.1"),
            ([5, 0], 8, "Q=0.8, E=0.2"),
            ([3, 3, 1], 8, "Q=0.4, E=0.2"),
        ],
    )
    def test_first_repeat_in_file_order_is_reported(self, tmp_path, extra, line, cell):
        path = tmp_path / "sqe.csv"
        rows = GOOD_ROWS + [GOOD_ROWS[k] for k in extra]
        path.write_text("\n".join(["Q_invA,E_meV,intensity,error", *rows]) + "\n")
        with pytest.raises(ParseError, match=f"line {line}: cell {cell} repeated"):
            read_spectrum_csv(path, MANIFEST)

    def test_header_fault_names_the_file(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text("Q,E,I,dI\n" + "\n".join(GOOD_ROWS) + "\n")
        with pytest.raises(ParseError, match="line 1") as info:
            read_spectrum_csv(path, MANIFEST)
        assert str(info.value).startswith(f"{path}: line 1: expected header")


CHI_FAULTS = {
    "wrong field count": ("2.0,0.02", 3, "expected 3 fields, got 2"),
    "non-numeric cell": ("2.0,x,0", 3, "cannot parse chi_emu_per_mol='x'"),
    "nan": ("2.0,0.02,nan", 3, "sigma='nan' is not finite"),
    "zero temperature": ("0.0,0.02,0", 3, "temperature must be positive, got 0.0"),
    "negative sigma": ("2.0,0.02,-1e-3", 3, "sigma must be nonnegative, got -0.001"),
}


class TestSusceptibilityReaderFaults:
    @pytest.mark.parametrize("fault", list(CHI_FAULTS))
    def test_single_fault(self, tmp_path, fault):
        row, line, text = CHI_FAULTS[fault]
        path = tmp_path / "chi.csv"
        path.write_text(f"T_K,chi_emu_per_mol,sigma\n1.0,0.01,0\n{row}\n3.0,0.03,0\n")
        with pytest.raises(ParseError) as info:
            read_susceptibility_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: line {line}: ") and text in message

    def test_repeated_temperature_listed_once(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n3.0,0.03,0\n1.0,0.01,0\n3.0,0.04,0\n")
        with pytest.raises(DuplicateAbscissa, match=r"chi.csv: \[3.0\]"):
            read_susceptibility_csv(path)


def blank_above(rows, line):
    """``rows`` with a blank row after the header and two blank-looking rows
    just above file line ``line``, which thereby moves to line + 3."""
    rows = list(rows)
    rows[line - 2:line - 2] = ["", " \t"]
    return ["", *rows]


class TestFaultLinesCountBlankRows:
    """Faults name the line of the file, blank rows included."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "fault", [f for f, spec in SPECTRUM_FAULTS.items() if spec[2] is not None]
    )
    def test_spectrum_fault(self, tmp_path, fault, newline):
        rows, cls, line, text = SPECTRUM_FAULTS[fault]
        path = tmp_path / "sqe.csv"
        lines = ["Q_invA,E_meV,intensity,error", *blank_above(rows, line)]
        path.write_bytes((newline.join(lines) + newline).encode())
        with pytest.raises(cls) as info:
            read_spectrum_csv(path, MANIFEST)
        assert info.value.line == line + 3
        assert str(info.value).startswith(f"{path}: line {line + 3}: ")
        assert text in str(info.value)

    @pytest.mark.parametrize("fault", list(CHI_FAULTS))
    def test_chi_fault(self, tmp_path, fault):
        row, line, text = CHI_FAULTS[fault]
        path = tmp_path / "chi.csv"
        rows = blank_above(["1.0,0.01,0", row, "3.0,0.03,0"], line)
        path.write_text("\n".join(["T_K,chi_emu_per_mol,sigma", *rows]) + "\n")
        with pytest.raises(ParseError) as info:
            read_susceptibility_csv(path)
        assert str(info.value).startswith(f"{path}: line {line + 3}: ")
        assert text in str(info.value)

    def test_short_row_after_two_blank_lines(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text("Q_invA,E_meV,intensity,error\n\n\n0.4,0.1,1.0,0.1\n0.6,0.1,2.0\n")
        with pytest.raises(ParseError, match="line 5: expected 4 fields, got 3"):
            read_spectrum_csv(path, MANIFEST)

    def test_header_below_blank_lines(self, tmp_path):
        path = tmp_path / "sqe.csv"
        path.write_text("\n \nQ_invA,E_meV,intensity,error\n" + "\n".join(GOOD_ROWS) + "\n")
        assert read_spectrum_csv(path, MANIFEST).intensity.shape == (2, 3)
        path.write_text("\n \nQ,E,I,dI\n" + "\n".join(GOOD_ROWS) + "\n")
        with pytest.raises(ParseError, match="line 3: expected header"):
            read_spectrum_csv(path, MANIFEST)


class TestHeaderWithoutRows:
    """Both readers refuse a file whose header has no data rows under it,
    with one message that names the file."""

    @pytest.mark.parametrize("reader", ["spectrum", "chi"])
    @pytest.mark.parametrize("below", ["", "\n", "\n  \n,,,\n", "\r\n"])
    def test_empty_file_names_the_path(self, tmp_path, reader, below):
        path = tmp_path / "data.csv"
        if reader == "spectrum":
            header = pipeline_io.SQE_HEADER
            read = functools.partial(read_spectrum_csv, manifest=MANIFEST)
        else:
            header, read = pipeline_io.CHI_HEADER, read_susceptibility_csv
        path.write_text(",".join(header) + "\n" + below, newline="")
        with pytest.raises(EmptyFile) as info:
            read(path)
        assert str(info.value) == f"{path} has a header but no data rows"


class TestNotUtf8:
    @pytest.mark.parametrize("reader", ["spectrum", "chi"])
    def test_parse_error_names_the_file_and_byte(self, tmp_path, reader):
        path = tmp_path / "data.csv"
        if reader == "spectrum":
            grid = SpectrumGrid(
                q_axis=np.linspace(0.2, 1.0, 40), e_axis=np.linspace(-0.1, 1.0, 300),
                intensity=np.ones((300, 40)), errors=np.ones((300, 40)), temperature=0.5,
            )
            write_spectrum_csv(path, grid)
            read = functools.partial(read_spectrum_csv, manifest=MANIFEST)
        else:
            write_susceptibility_csv(path, SusceptibilityCurve([1.0, 2.0], [0.1, 0.2], [0, 0]))
            read = read_susceptibility_csv
        data = path.read_bytes()
        at = len(data) - 5  # past the first 8 KiB chunk for the spectrum
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid continuation byte at byte {at}"


def reference_read_table(path, header):
    """csv.reader and one float() per token: the reader that the loadtxt path
    of ``_read_table`` must match, bit for bit and message for message, with
    lines numbered as in the file (``reader.line_num``)."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if not rows:
        raise EmptyFile(f"{path} is empty")
    (line, head), body = rows[0], rows[1:]
    if [c.strip() for c in head] != header:
        raise ParseError(
            f"expected header {','.join(header)!r}, got {','.join(head)!r}", line=line, path=path
        )
    values = []
    for line, row in body:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line, path=path)
        for column, token in zip(header, row):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"cannot parse {column}={token!r} as a number", line=line, path=path
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{column}={token!r} is not finite", line=line, path=path)
            values.append(value)
    return np.array(values, dtype=float).reshape(len(body), len(header))


def table_outcome(read, path, header):
    try:
        table = read(path, header)
    except Exception as exc:
        return type(exc), str(exc)
    return table.dtype, table.shape, table.flags.c_contiguous, table.tobytes()


PIECES = ["0", "1", "3", "7", "9", "+", "-", ".", "e", "E", "_", " ", "\t", '"', "#",
          "nan", "inf", "١", "٣", "0.25", "1e-300", "12345678901234567890"]
TOKENS = st.one_of(
    st.sampled_from(["nan", "-inf", "1e999", " 1.5\t", '"2.5"', "1_0", "٣", "0x1p3", ""]),
    st.lists(st.sampled_from(PIECES), max_size=6).map("".join),
)
ROW = st.integers(0, 1000)
EDITS = st.one_of(
    st.tuples(st.just("token"), ROW, st.integers(0, 4), TOKENS),
    st.tuples(st.just("insert"), ROW,
              st.sampled_from(["", " ", "\t ", ",,,", ",,", " , , ", "# note"])),
    st.tuples(st.just("extra field"), ROW, TOKENS),
    st.tuples(st.just("drop field"), ROW),
    st.tuples(st.just("extra field in every row"), ROW, TOKENS),
    st.tuples(st.just("drop field in every row"), ROW),
)
HEADER_FORMS = ["exact", "blank line above", "padded cell", "space inside a name", "wrong"]


def edit_rows(rows, edit):
    kind, k = edit[0], edit[1] % (len(rows) + 1)
    if kind.endswith("in every row"):
        for k in range(len(rows)):
            rows = edit_rows(rows, (kind.removesuffix(" in every row"), k, *edit[2:]))
        return rows
    if kind == "insert":
        return rows[:k] + [edit[2]] + rows[k:]
    if k == len(rows):
        return rows
    fields = rows[k].split(",")
    if kind == "token":
        fields[edit[2] % len(fields)] = edit[3]
    elif kind == "extra field":
        fields.append(edit[2])
    else:
        fields.pop()
    return rows[:k] + [",".join(fields)] + rows[k + 1:]


class TestLoadtxtPathMatchesTheCsvWalk:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["sqe", "chi"]),
        st.lists(FINITE, min_size=12, max_size=12),
        st.lists(EDITS, max_size=3),
        st.sampled_from(HEADER_FORMS),
        st.randoms(use_true_random=False),
    )
    def test_same_table_or_same_fault(self, tmp_path_factory, kind, values, edits, form, rnd):
        path = tmp_path_factory.mktemp("diff") / f"{kind}.csv"
        if kind == "sqe":
            header = pipeline_io.SQE_HEADER
            grid = SpectrumGrid(
                q_axis=[0.4, 0.6, 0.8], e_axis=[-0.5, 0.5],
                intensity=np.reshape(values[:6], (2, 3)),
                errors=np.abs(np.reshape(values[6:], (2, 3))), temperature=0.5,
            )
            write_spectrum_csv(path, grid)
        else:
            header = pipeline_io.CHI_HEADER
            curve = SusceptibilityCurve(np.arange(1.0, 5.0), values[:4], np.abs(values[4:8]))
            write_susceptibility_csv(path, curve)
        head, *rows = path.read_text().splitlines()
        for edit in edits:
            rows = edit_rows(rows, edit)
        head = {"exact": [head], "blank line above": [" ", head],
                "padded cell": [head.replace(",", " ,", 1)],
                "space inside a name": [head.replace("_", " _", 1)], "wrong": [head.upper()]}[form]
        text = "".join(line + rnd.choice(["\n", "\r\n"]) for line in head + rows)
        path.write_bytes(text.rstrip("\r\n").encode() if rnd.random() < 0.2 else text.encode())
        assert table_outcome(pipeline_io._read_table, path, header) == table_outcome(
            reference_read_table, path, header
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [row.rsplit(",", 1)[0] for row in GOOD_ROWS],  # every row one field short
            [row + ",0" for row in GOOD_ROWS],  # every row one field long
            GOOD_ROWS + ["# note"],
            with_row(2, "0.8,0.1,2.5,0.1#x"),
            with_row(2, '"0.8",0.1,2.5,0.1'),
            with_row(2, "0.8,0.1,2_5,0.1"),
            with_row(2, "0.8,0.1,٢.5,0.1"),
            with_row(2, "0.8,0.1,2.5,0.1,"),
            with_row(2, " 0.8 ,\t0.1,2.5 , 0.1"),
            with_row(2, "0.8,0.1,nan(1),0.1"),
            GOOD_ROWS[:3] + ["  \t", ",,,"] + GOOD_ROWS[3:],
        ],
    )
    def test_same_table_or_same_fault_on_chosen_rows(self, tmp_path, rows):
        path = tmp_path / "sqe.csv"
        path.write_text("\n".join(["Q_invA,E_meV,intensity,error", *rows]) + "\n")
        header = pipeline_io.SQE_HEADER
        assert table_outcome(pipeline_io._read_table, path, header) == table_outcome(
            reference_read_table, path, header
        )

    def test_written_files_never_reach_the_csv_walk(self, tmp_path, monkeypatch):
        paths = generate_synthetic_dataset(
            CHAIN, STARYKH, [0.5], tmp_path, config=small_config(noise_level=1.0)
        )
        monkeypatch.setattr(pipeline_io, "_csv_rows", None)
        read_susceptibility_csv(paths["chi_csv"])
        for spectrum in paths["spectra"]:
            read_spectrum_csv(spectrum["sqe_csv"], MANIFEST)




def test_synthetic_spectrum_row_at_zero_energy(tmp_path):
    e_axis = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    written = generate_synthetic_dataset(
        CHAIN, STARYKH, [0.5], tmp_path, config=small_config(e_axis=e_axis)
    )
    entry = written["spectra"][0]
    grid = read_spectrum_csv(entry["sqe_csv"], DatasetManifest.load(entry["manifest"]))
    np.testing.assert_array_equal(grid.e_axis, e_axis)
    assert np.all(np.isfinite(grid.intensity[2])) and np.all(grid.intensity[2] > 0)


def test_synthetic_dataset_opens_no_file(tmp_path, monkeypatch):
    """The generator returns its files as text, grids and callables of the
    CSV hashes, and opens no file; writing them gives each grid's CSV text,
    and manifests and generation.json that record the written files' hashes."""
    cfg = small_config(seed=7, noise_level=1.0, elastic_amplitude=100.0)

    def no_open(*args, **kwargs):
        raise AssertionError("synthetic_dataset opened a file")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline_io, "open", no_open, raising=False)
    outputs = pipeline_io.synthetic_dataset(CHAIN, STARYKH, [0.2, 0.5], cfg)
    monkeypatch.delattr(pipeline_io, "open")
    assert list(tmp_path.iterdir()) == []
    assert list(outputs) == [
        "chi.csv", "sqe_T0p2.csv", "manifest_T0p2.json", "sqe_T0p5.csv", "manifest_T0p5.json",
        "generation.json",
    ]
    assert [type(outputs[name]) for name in ("chi.csv", "sqe_T0p2.csv")] == [str, SpectrumGrid]
    hashes = pipeline_io.write_outputs(tmp_path / "d", outputs, None)
    written = generate_synthetic_dataset(CHAIN, STARYKH, [0.2, 0.5], tmp_path / "e", config=cfg)
    assert written["spectra"][1] == {
        "sqe_csv": str(tmp_path / "e" / "sqe_T0p5.csv"),
        "manifest": str(tmp_path / "e" / "manifest_T0p5.json"),
    }
    assert list(hashes) == list(outputs)
    for name, content in outputs.items():
        data = (tmp_path / "d" / name).read_bytes()
        assert data == (tmp_path / "e" / name).read_bytes()
        assert hashes[name] == sha256_of(tmp_path / "d" / name)
        if isinstance(content, SpectrumGrid):
            content = pipeline_io._spectrum_csv_text(content)
        elif callable(content):
            content = json.dumps(content(hashes), indent=2, sort_keys=True) + "\n"
        assert data == content.encode("utf-8")
    generation = json.loads((tmp_path / "d" / "generation.json").read_bytes())
    assert [r["path"] for r in generation["files"]] == ["chi.csv", "sqe_T0p2.csv", "sqe_T0p5.csv"]
    for record in generation["files"]:
        assert record["sha256"] == sha256_of(tmp_path / "d" / record["path"])
    manifest = json.loads((tmp_path / "d" / "manifest_T0p5.json").read_bytes())
    assert manifest["inputs"] == [{"path": "sqe_T0p5.csv", "sha256": hashes["sqe_T0p5.csv"]}]


HEADER_LINE = "Q_invA,E_meV,intensity,error"
GOOD_TEXT = "\n".join([HEADER_LINE, *GOOD_ROWS]) + "\n"
GOOD_TABLE = np.array([[float(v) for v in row.split(",")] for row in GOOD_ROWS])

# file text -> the table _read_table returns, or (error class, message with
# the file's path for "{path}"); line numbers count every line of the file
INGEST_CASES = {
    "crlf": (GOOD_TEXT.replace("\n", "\r\n"), GOOD_TABLE),
    "no final newline": (GOOD_TEXT.rstrip("\n"), GOOD_TABLE),
    "trailing blank lines": (GOOD_TEXT + "\n\n \t\n\n", GOOD_TABLE),
    "header only": (HEADER_LINE + "\n", (EmptyFile, "{path} has a header but no data rows")),
    "utf-8 bom": ("\ufeff" + GOOD_TEXT, (
        ParseError,
        f"{{path}}: line 1: expected header {HEADER_LINE!r}, got {chr(0xfeff) + HEADER_LINE!r}",
    )),
    "whitespace-only row": (
        "\n".join([HEADER_LINE, *GOOD_ROWS[:3], "  \t ", *GOOD_ROWS[3:]]) + "\n", GOOD_TABLE
    ),
    "blank rows above the data": ("\n".join([HEADER_LINE, "", "  ", *GOOD_ROWS]) + "\n",
                                  GOOD_TABLE),
    "quoted cell": ("\n".join([HEADER_LINE, *with_row(2, '"0.8",0.1,"2.5",0.1')]) + "\n",
                    GOOD_TABLE),
    "nan cell": ("\n".join([HEADER_LINE, *with_row(3, "0.4,0.2,nan,0.1")]) + "\n",
                 (ParseError, "{path}: line 5: intensity='nan' is not finite")),
}


class TestStreamingIngest:
    """The reader opens the file once and hands its lines to loadtxt; every
    file it refuses reaches the csv walk, which decides as before."""

    @pytest.mark.parametrize("case", list(INGEST_CASES))
    def test_same_table_or_same_fault(self, tmp_path, case):
        text, expected = INGEST_CASES[case]
        path = tmp_path / "sqe.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, np.ndarray):
                table = read_spectrum_csv(path, MANIFEST)
                assert table.intensity.tobytes() == expected[:, 2].tobytes()
                assert table.errors.tobytes() == expected[:, 3].tobytes()
                assert pipeline_io._read_table(path, pipeline_io.SQE_HEADER).tobytes() == (
                    expected.tobytes()
                )
            else:
                cls, message = expected
                with pytest.raises(cls) as info:
                    read_spectrum_csv(path, MANIFEST)
                assert str(info.value) == message.replace("{path}", str(path))

    def test_invalid_byte_past_the_first_64_kib(self, tmp_path):
        grid = SpectrumGrid(
            q_axis=np.linspace(0.2, 1.0, 40), e_axis=np.linspace(-0.1, 1.0, 300),
            intensity=np.full((300, 40), 1.5), errors=np.full((300, 40), 0.25), temperature=0.5,
        )
        path = tmp_path / "sqe.csv"
        write_spectrum_csv(path, grid)
        data = path.read_bytes()
        at = 70_000
        assert len(data) > at > 65_536
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as info:
                read_spectrum_csv(path, MANIFEST)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte {at}"


def test_written_bytes_equal_the_hashed_text(tmp_path):
    """synth hashes _spectrum_csv_text; the file writer must give its bytes,
    signed zeros and the ends of the float range included."""
    edge = [-0.0, 5e-324, 1e308]
    grid = SpectrumGrid(
        q_axis=np.array([-0.0, 5e-324, 1e308]), e_axis=np.array([-1e308, -0.0, 5e-324, 1e308]),
        intensity=np.array([edge, edge[::-1], [-x for x in edge], [1.0, 2.0, 3.0]]),
        errors=np.array([edge[::-1], edge, [0.0, 0.5, 1e300], edge]),
        temperature=0.5,
    )
    path = tmp_path / "sqe.csv"
    write_spectrum_csv(path, grid)
    text = pipeline_io._spectrum_csv_text(grid)
    assert path.read_bytes() == text.encode("utf-8")
    for token in ("-0.0,", "5e-324,", "1e+308", "-1e+308,"):
        assert token in text


class TestBoundedMemory:
    """Peak Python allocations of ingest, emit and render on a 100 Q x 600 E
    grid (60,000 cells): each follows the parsed arrays or one energy row,
    not the file text. Measured: read 3.4x the parsed table, write 0.06 MB,
    render 1.33x the SVG text; the whole-file versions took 9.8x, 12.5 MB
    and 3.7x."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(5)
        shape = (600, 100)
        return SpectrumGrid(
            q_axis=np.linspace(0.1, 2.0, 100), e_axis=np.linspace(-0.2, 1.0, 600),
            intensity=100.0 * rng.normal(size=shape), errors=1.0 + 10.0 * rng.random(shape),
            temperature=0.5,
        )

    @staticmethod
    def peak(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_follows_the_parsed_table(self, tmp_path, grid):
        path = tmp_path / "sqe.csv"
        write_spectrum_csv(path, grid)
        table_bytes = grid.intensity.size * 4 * 8
        assert self.peak(lambda: read_spectrum_csv(path, MANIFEST)) < 4.5 * table_bytes

    def test_write_holds_one_energy_row(self, tmp_path, grid):
        assert self.peak(lambda: write_spectrum_csv(tmp_path / "sqe.csv", grid)) < 0.5e6

    def test_render_holds_the_svg_text_once(self, tmp_path, grid):
        fig = Figure()
        fig.cells(grid.q_axis, grid.e_axis, grid.intensity)
        path = tmp_path / "map.svg"
        peak = self.peak(lambda: fig.render(path))
        assert peak < 1.6 * path.stat().st_size

    # 8 temperatures of synth on the 100 Q x 600 E grid: what the generator
    # holds is the grids' arrays, 8 x 2 x 60,000 floats
    SYNTH_TEMPS = [0.04, 0.06, 0.1, 0.15, 0.2, 0.3, 0.45, 0.7]
    SYNTH_GRID_BYTES = 8 * 2 * 600 * 100 * 8

    @staticmethod
    def synth_config():
        return small_config(
            seed=7, noise_level=1.0, elastic_amplitude=100.0,
            q_axis=np.linspace(0.1, 2.0, 100), e_axis=np.linspace(-0.2, 1.0, 600),
        )

    def test_synth_holds_its_grids_not_their_text(self):
        """Measured: 1.0x the grids' arrays; holding each CSV as text took 4x."""
        # numpy.random and the quadrature's first use allocate outside the trace
        pipeline_io.synthetic_dataset(CHAIN, STARYKH, [0.5], small_config())
        tracemalloc.start()
        try:
            outputs = pipeline_io.synthetic_dataset(
                CHAIN, STARYKH, self.SYNTH_TEMPS, self.synth_config()
            )
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(outputs) == 2 + 2 * len(self.SYNTH_TEMPS)
        assert held <= 1.2 * self.SYNTH_GRID_BYTES

    def test_write_outputs_hashes_what_it_writes_in_one_row_of_memory(self, tmp_path):
        outputs = pipeline_io.synthetic_dataset(
            CHAIN, STARYKH, self.SYNTH_TEMPS, self.synth_config()
        )
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            hashes = pipeline_io.write_outputs(tmp_path, outputs, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 0.5e6
        assert list(hashes) == list(outputs)
        for name, digest in hashes.items():
            assert digest == sha256_of(tmp_path / name)
        generation = json.loads((tmp_path / "generation.json").read_bytes())
        for record in generation["files"]:
            assert record["sha256"] == sha256_of(tmp_path / record["path"])
        for name in outputs:
            if name.startswith("manifest_T"):
                (entry,) = json.loads((tmp_path / name).read_bytes())["inputs"]
                assert entry["sha256"] == sha256_of(tmp_path / entry["path"])
