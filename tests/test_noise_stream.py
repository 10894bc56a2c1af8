"""The normal stream ``synth`` draws its noise from: SplitMix64 outputs, the
53-bit uniforms made from them, Box-Muller normals, and the seed rule."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chainqfi.cli import main
from chainqfi.pipeline_io import SynthConfig, _NormalStream, _splitmix64, _uniforms

STREAM = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
MASK = 2**64 - 1


def splitmix64_reference(seed, start, n):
    """Outputs ``start`` to ``start + n - 1`` of SplitMix64 as published, one
    Python integer at a time from the state before output ``start``."""
    state, out = (seed + start * 0x9E3779B97F4A7C15) & MASK, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_published_vectors():
    assert splitmix64_reference(0, 0, 3) == _splitmix64(0, 0, 3).tolist()
    assert _splitmix64(0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert _splitmix64(1234567, 0, 5).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


def test_seed_7_uniform_stage_is_pinned():
    """Integer-only, so the same on every host."""
    assert _splitmix64(7, 0, 4).tolist() == [
        7191089600892374487, 309689372594955804, 16616101746815609346,
        10753165928301472203,
    ]
    # u = k / 2**53 with k the top 53 bits plus one, exact in a double
    assert _uniforms(7, 0, 4).tolist() == [
        k / 2**53 for k in (3511274219185730, 151215513962381, 8113330931062310, 5250569300928454)
    ]


@STREAM
@given(seed=SEEDS, start=st.integers(0, 2**40), n=st.integers(0, 40))
def test_splitmix64_matches_the_reference_loop(seed, start, n):
    assert _splitmix64(seed, start, n).tolist() == splitmix64_reference(seed, start, n)


def test_uniforms_span_half_open_unit_interval():
    u = _uniforms(3, 0, 10**5)
    assert u.dtype == np.float64
    assert 0.0 < u.min() and u.max() <= 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))


@STREAM
@given(seed=SEEDS, n=st.integers(0, 50), m=st.integers(0, 50))
def test_drawing_n_then_m_equals_drawing_n_plus_m(seed, n, m):
    stream = _NormalStream(seed)
    first, second = stream.normal(n), stream.normal((m, 1))
    assert second.shape == (m, 1)
    together = _NormalStream(seed).normal(n + m)
    assert np.array_equal(np.concatenate([first, second.ravel()]), together)


def test_normals_follow_the_standard_normal():
    x = _NormalStream(7).normal(10**5)
    assert np.isfinite(x).all()
    # seed 7 reads D = 0.0025, mean -0.0033, variance 1.0022
    assert stats.kstest(x, stats.norm.cdf).statistic < 0.005
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.015


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 7.0, True, "7"])
def test_seed_outside_the_rule_is_refused(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        SynthConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_seed_at_the_ends_of_the_range_is_taken(seed):
    assert SynthConfig(seed=seed).seed == seed


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_synth_refuses_a_seed_by_name(tmp_path, capsys, seed):
    out = tmp_path / "data"
    assert main(["synth", "--seed", seed, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"seed must be an integer in [0, 2**64), got {seed}",
    }
    assert not out.exists()


def test_synth_refuses_a_float_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1.5", "--out", str(tmp_path / "data")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
