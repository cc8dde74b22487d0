"""errors.real, errors.integer and errors.increasing, and every entry point that checks a number with them: a
bool, a string, None or a non-finite value is a DomainError naming the field (a ConfigError with the same text
through the CLI's schema), and a numpy scalar in range is taken and kept as a Python float or int."""

import math
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from cogaccess import cli
from cogaccess.errors import ConfigError, DomainError, increasing, integer, real
from cogaccess.estimator import estimate, learning_then_regular
from cogaccess.mathcore import q_func, q_inv
from cogaccess.optimizer import FixedFalseAlarm, OptimizationRequest, default_tau_grid, primary_delay
from cogaccess.phy import (
    LinkSuccess,
    PhyParams,
    SensingPoint,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    roc_from_threshold,
    secondary_success_prob,
)
from cogaccess.schemes import SchemeConfig, Variant, service_rates
from cogaccess.sim import FeedbackCounts, SimConfig

POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)
LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
PHY = PhyParams(b=1e4, T=1.0, W=1e4, f_s=1e4, gamma_sense=0.05, sigma_u2=1.0, gamma_s_sd=20.0, sigma2_s_sd=1.0,
                gamma_p_pd=2.0, sigma2_p_pd=1.0)
PHY_DOC = {"bits_per_packet": 1e4, "slot_seconds": 1.0, "bandwidth_hz": 1e4, "sampling_hz": 1e4,
           "sense_snr_db": -13.0, "secondary_snr_db": 13.0, "primary_snr_db": 3.0}
LINKS_DOC = {"p_bar_p_pd": 0.9, "p_bar_s_sd": 0.8}
SIM = SimConfig(slots=1_000, seed=1, lambda_p=0.3, lambda_s=0.1, scheme=SchemeConfig(Variant.S1, 1.0, 0.0, POINT),
                phy=LINKS)


def request(**changes):
    return OptimizationRequest(Variant.S2, FixedFalseAlarm(0.2), **changes)


# Each number an entry point checks: the field's name as its message gives it, the call that passes the value as
# that field (every other argument valid) and returns where it is kept, or what the call returns, and an in-range
# float, with an in-range int where the field has one.  A constructor keeps the value; a function's result is
# compared with its result at float(value).
REALS = {
    **{f"PhyParams.{f.name}": (f"PhyParams.{f.name}", lambda v, f=f.name: getattr(replace(PHY, **{f: v}), f),
                               getattr(PHY, f.name), 1) for f in fields(PhyParams)},
    **{f"SensingPoint.{f}": (f"SensingPoint.{f}", lambda v, f=f: getattr(replace(POINT, **{f: v}), f), 0.5, 0)
       for f in ("tau", "p_fa", "p_md")},
    **{f"LinkSuccess.{f}": (f"LinkSuccess.{f}", lambda v, f=f: getattr(replace(LINKS, **{f: v}), f), 0.5, 1)
       for f in ("p_bar_p_pd", "p_bar_s_sd")},
    **{f"SchemeConfig.{f}": (f"SchemeConfig.{f}", lambda v, f=f: getattr(SchemeConfig(Variant.S2, **{
        "a_s": 0.5, "b_s": 0.5, f: v}, sensing=POINT), f), 0.5, 0) for f in ("a_s", "b_s")},
    "service_rates lambda_p": ("lambda_p", lambda v: service_rates(SchemeConfig(Variant.S1, 0.5, 0.0, POINT), LINKS,
                                                                  v), 0.25, 0),
    "secondary_success_prob tau": ("sensing time", lambda v: secondary_success_prob(PHY, v), 0.5, 0),
    "roc_from_threshold epsilon": ("detection threshold", lambda v: roc_from_threshold(PHY, v, 0.05), 1.03, 1),
    "roc_from_threshold tau": ("sensing time", lambda v: roc_from_threshold(PHY, 1.03, v), 0.05, 1),
    "pfa_for_target_pmd target": ("target p_md", lambda v: pfa_for_target_pmd(PHY, v, 0.05), 0.3, None),
    "pfa_for_target_pmd tau": ("sensing time", lambda v: pfa_for_target_pmd(PHY, 0.3, v), 0.05, 1),
    "pmd_for_target_pfa target": ("target p_fa", lambda v: pmd_for_target_pfa(PHY, v, 0.05), 0.2, None),
    "pmd_for_target_pfa tau": ("sensing time", lambda v: pmd_for_target_pfa(PHY, 0.2, v), 0.05, 1),
    "q_func": ("q_func", q_func, 1.5, 2),
    "q_inv": ("q_inv", q_inv, 0.3, None),
    **{f"SimConfig.{f}": (f"SimConfig.{f}", lambda v, f=f: getattr(replace(SIM, **{f: v}), f), 0.5, 0)
       for f in ("lambda_p", "lambda_s", "feedback_error")},
    "OptimizationRequest.margin": ("margin", lambda v: request(margin=v).margin, 0.05, 0),
    "OptimizationRequest.tau_grid": ("tau grid entries", lambda v: request(tau_grid=(v,)).tau_grid[0], 0.05, 1),
    "OptimizationRequest.b_s_grid": ("b_s grid entries", lambda v: request(b_s_grid=(v,)).b_s_grid[0], 0.5, 1),
    "default_tau_grid": ("slot duration", default_tau_grid, 2.0, 2),
    "primary_delay lambda_p": ("lambda_p", lambda v: primary_delay(v, 0.9), 0.3, 0),
    "primary_delay mu_p": ("mu_p", lambda v: primary_delay(0.3, v), 0.9, 1),
    "estimate p_e": ("p_e", lambda v: estimate(FeedbackCounts(30, 40, 100), v), 0.1, 0),
    "learning_then_regular margin": ("margin", lambda v: learning_then_regular(50, SIM, margin=v).margin, 0.05, 0),
    # the CLI's schema, whose kinds are real and integer: ConfigError, with the same text
    "cli channel.p_bar_p_pd": ("channel.p_bar_p_pd", lambda v: cli._walk(dict(LINKS_DOC, p_bar_p_pd=v), cli._CHANNEL,
                                                                         "channel")["p_bar_p_pd"], 0.5, 1),
    "cli phy.sense_snr_db": ("phy.sense_snr_db", lambda v: cli._walk(dict(PHY_DOC, sense_snr_db=v), cli._PHY,
                                                                     "phy")["sense_snr_db"], 3.0, 3),
    "cli grids.lambda_p": ("grids.lambda_p grid entries", lambda v: cli._walk({"lambda_p": [v]}, cli._GRIDS,
                                                                              "grids")["lambda_p"][0], 0.5, 1),
}
INTEGERS = {
    **{f"SimConfig.{f}": (f"SimConfig.{f}", lambda v, f=f: getattr(replace(SIM, **{f: v}), f), 3)
       for f in ("slots", "seed", "initial_qp", "initial_qs")},
    **{f"estimate {name}": (f"feedback count {name}", lambda v, i=i: estimate(FeedbackCounts(
        *(v if j == i else (30, 40, 100)[j] for j in range(3)))), 40) for i, name in enumerate("AMN")},
    "learning_then_regular lp_slots": ("lp_slots", lambda v: learning_then_regular(v, SIM, margin=0.0).margin, 50),
    "cli sim.seed": ("sim.seed", lambda v: cli._walk({"seed": v}, cli._SIM, "sim")["seed"], 3),
}
BAD = [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400]


def plain(result):
    """The scalars of a result: a dataclass's or a tuple's fields, or the result itself."""
    if isinstance(result, tuple) or hasattr(result, "__dataclass_fields__"):
        return [x for item in (result if isinstance(result, tuple) else astuple(result)) for x in plain(item)]
    return [result]


def error_of(entry):
    return ConfigError if entry.startswith("cli ") else DomainError


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}") for entry in REALS for value in BAD
    if not (value is None and entry == "learning_then_regular margin")  # None: the recommended margin
])
def test_a_real_field_rejects_what_is_not_a_finite_number(entry, value):
    name, call, *_ = REALS[entry]
    with pytest.raises(error_of(entry), match=name):
        call(value)


@pytest.mark.parametrize("value", BAD[:-1], ids=repr)  # 10**400 is an integer: only a bound may refuse it
@pytest.mark.parametrize("entry", INTEGERS)
def test_an_integer_field_rejects_what_is_not_an_integer(entry, value):
    name, call, _ = INTEGERS[entry]
    with pytest.raises(error_of(entry), match=name):
        call(value)


@pytest.mark.parametrize("entry, kind", [
    pytest.param(entry, kind, id=f"{entry}-{kind.__name__}")
    for entry in REALS for kind in (np.float32, np.float64, np.int64)
    if kind is not np.int64 or REALS[entry][3] is not None  # no integer lies inside (0, 1)
])
def test_a_real_field_takes_numpy_scalars_as_floats(entry, kind):
    _, call, good, good_int = REALS[entry]
    value = kind(good_int if kind is np.int64 else good)
    taken = call(value)
    assert taken == call(float(value))
    scalars = plain(taken)
    assert not any(isinstance(x, np.generic) for x in scalars)
    if len(scalars) == 1:  # a kept value, or a function's one number
        assert type(taken) is float


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("entry", INTEGERS)
def test_an_integer_field_takes_numpy_integers_as_ints(entry, kind):
    _, call, good = INTEGERS[entry]
    taken = call(kind(good))
    assert taken == call(good)
    assert not any(isinstance(x, np.generic) for x in plain(taken))
    if entry.startswith(("SimConfig", "cli")):
        assert type(taken) is int


class TestChecks:
    @pytest.mark.parametrize("value, message", [
        (True, "x must be a number, got True"), ("0.5", "x must be a number, got '0.5'"),
        (None, "x must be a number, got None"), (np.bool_(True), "x must be a number, got np.True_"),
        (math.nan, "x must be finite"), (-math.inf, "x must be finite"), (10**400, "x must be finite"),
        (-1, "x must be >= 0, got -1.0"), (2.5, "x must be <= 1, got 2.5"),
    ])
    def test_real_messages(self, value, message):
        with pytest.raises(DomainError) as info:
            real(value, "x", 0, 1)
        assert str(info.value) == message

    def test_open_bounds_state_the_bound(self):
        # an open bound is written as the bound, never as the float next to it
        for value, message in ((0.0, "x must be > 0.0, got 0.0"), (1.0, "x must be < 1.0, got 1.0")):
            with pytest.raises(DomainError) as info:
                real(value, "x", above=0.0, below=1.0)
            assert str(info.value) == message
        assert real(5e-324, "x", above=0.0, below=1.0) == 5e-324

    def test_integer_messages(self):
        for value, message in ((2.5, "x must be an integer, got 2.5"), (False, "x must be an integer, got False"),
                               (-1, "x must be >= 0, got -1"), (np.int8(9), "x must be <= 8, got 9")):
            with pytest.raises(DomainError) as info:
                integer(value, "x", 0, 8)
            assert str(info.value) == message

    @pytest.mark.parametrize("values, ok", [
        ((), True), ((0.5,), True), ((0.1, 0.2, 0.3), True), ((0.1, 0.1), False), ((0.2, 0.1), False),
        ((0.1, math.nan), False), ((-0.0, 0.0), False),
    ])
    def test_increasing(self, values, ok):
        if ok:
            assert increasing(values, "x") is values
        else:
            with pytest.raises(DomainError, match="^x grid must be strictly increasing$"):
                increasing(values, "x")

    def test_increasing_makes_no_copy(self):
        # a copy of a 100,000-float tuple is 0.8 MB of pointers; one pass over pairs holds two floats
        values = tuple(i / 1e5 for i in range(100_000))
        tracemalloc.start()
        try:
            increasing(values, "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
