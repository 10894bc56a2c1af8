import json
import math

import numpy as np
import pytest

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
    read_spectrum_csv,
    read_susceptibility_csv,
    subtract_elastic_line,
    write_spectrum_csv,
    write_susceptibility_csv,
)
from chainqfi.suscept import SusceptibilityCurve, fit_susceptibility


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
            assert (
                open(a[key], "rb").read() == open(b[key], "rb").read()
            )
        assert (
            open(a["spectra"][0]["sqe_csv"], "rb").read()
            == open(b["spectra"][0]["sqe_csv"], "rb").read()
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
            open(a["spectra"][0]["sqe_csv"], "rb").read()
            != open(b["spectra"][0]["sqe_csv"], "rb").read()
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
