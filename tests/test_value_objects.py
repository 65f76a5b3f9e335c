"""The value objects GenNormParams, FisherEstimate and QuadResult behave as
frozen dataclasses: construction, equality, hashing, repr, frozenness, the
dataclasses helpers and every validation message.  require_real returns the
same value for an exact float as for any other real number of that value."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from gennorm_fisher import FisherEstimate, GenNormParams, QuadResult
from gennorm_fisher.special_functions import require_real

INF = math.inf
NAN = math.nan


class TestGenNormParams:
    def test_positional_and_keyword_construction_agree(self):
        p = GenNormParams(1.5, 2.0)
        assert (p.theta, p.beta) == (1.5, 2.0)
        assert GenNormParams(theta=1.5, beta=2.0) == p
        assert GenNormParams(1.5, beta=2.0) == p
        assert GenNormParams(beta=2.0, theta=1.5) == p

    @pytest.mark.parametrize("theta, beta", [(1, 2), (np.float64(1.0), np.int64(2)),
                                             (np.float32(1.0), 2.0), (True + 0, 2)])
    def test_fields_are_exact_floats(self, theta, beta):
        p = GenNormParams(theta, beta)
        assert type(p.theta) is float and type(p.beta) is float
        assert (p.theta, p.beta) == (1.0, 2.0)

    def test_a_float_subclass_is_stored_as_a_float(self):
        class Sub(float):
            pass

        p = GenNormParams(Sub(2.5), Sub(4.0))
        assert type(p.theta) is float and type(p.beta) is float

    def test_equality_hash_and_repr(self):
        p, q = GenNormParams(1, 2), GenNormParams(1.0, 2.0)
        assert p == q and hash(p) == hash(q) == hash((1.0, 2.0))
        assert p != GenNormParams(1.0, 4.0)
        assert p != (1.0, 2.0)
        assert len({p, q, GenNormParams(2.0, 2.0)}) == 2
        assert repr(p) == "GenNormParams(theta=1.0, beta=2.0)"
        assert repr(GenNormParams(np.float64(0.1), 1e300)) == "GenNormParams(theta=0.1, beta=1e+300)"

    def test_frozen(self):
        p = GenNormParams(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.theta = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.beta
        assert p == GenNormParams(1.0, 2.0)

    def test_dataclass_helpers(self):
        p = GenNormParams(1.0, 2.0)
        assert dataclasses.is_dataclass(p)
        assert [f.name for f in dataclasses.fields(p)] == ["theta", "beta"]
        assert dataclasses.asdict(p) == {"theta": 1.0, "beta": 2.0}
        assert dataclasses.astuple(p) == (1.0, 2.0)
        r = dataclasses.replace(p, theta=3)
        assert r == GenNormParams(3.0, 2.0) and type(r.theta) is float
        with pytest.raises(ValueError, match="theta must be positive and finite, got -1"):
            dataclasses.replace(p, theta=-1)
        assert GenNormParams.__match_args__ == ("theta", "beta")

    def test_copy_and_pickle(self):
        p = GenNormParams(1.25, 3.0)
        assert copy.copy(p) == p and copy.deepcopy(p) == p
        assert pickle.loads(pickle.dumps(p)) == p

    def test_signature(self):
        assert list(inspect.signature(GenNormParams).parameters) == ["theta", "beta"]

    @pytest.mark.parametrize("args, message", [
        ((0, 2), "theta must be positive and finite, got 0"),
        ((-1.0, 2), "theta must be positive and finite, got -1.0"),
        ((-0.0, 2), "theta must be positive and finite, got -0.0"),
        ((NAN, 2), "theta must be positive and finite, got nan"),
        ((INF, 2), "theta must be positive and finite, got inf"),
        ((True, 2), "theta must be a real number, got True"),
        ((np.bool_(True), 2), "theta must be a real number, got "),
        (("1", 2), "theta must be a real number, got '1'"),
        ((None, 2), "theta must be a real number, got None"),
        ((1, 0), "beta must be positive and finite, got 0"),
        ((1, -2.0), "beta must be positive and finite, got -2.0"),
        ((1, INF), "beta must be positive and finite, got inf"),
        ((1, NAN), "beta must be positive and finite, got nan"),
        ((1, False), "beta must be a real number, got False"),
        ((1, b"2"), "beta must be a real number, got b'2'"),
        ((1, 1e-320), "beta=1e-320 is too small: 1/beta overflows the double range"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            GenNormParams(*args)
        assert str(excinfo.value).startswith(message)

    def test_theta_is_checked_before_beta(self):
        with pytest.raises(ValueError, match="^theta"):
            GenNormParams(-1.0, -1.0)

    def test_argument_errors(self):
        with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'beta'"):
            GenNormParams(1.0)
        with pytest.raises(TypeError, match="takes 3 positional arguments but 4 were given"):
            GenNormParams(1.0, 2.0, 3.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'gamma'"):
            GenNormParams(1.0, gamma=2.0)


class TestFisherEstimate:
    def test_positional_and_keyword_construction_agree(self):
        e = FisherEstimate(2.0, "closed_form", 0.0)
        assert (e.value, e.method, e.error_estimate) == (2.0, "closed_form", 0.0)
        assert FisherEstimate(value=2.0, method="closed_form", error_estimate=0.0) == e
        assert FisherEstimate(2.0, "closed_form", error_estimate=0.0) == e

    def test_fields_are_kept_as_given(self):
        e = FisherEstimate(np.float64(2.0), "quad_score_variance", 1)
        assert type(e.value) is np.float64 and type(e.error_estimate) is int

    def test_equality_hash_and_repr(self):
        e = FisherEstimate(2.0, "mc_score_variance", 0.01)
        f = FisherEstimate(2.0, "mc_score_variance", 0.01)
        assert e == f and hash(e) == hash(f) == hash((2.0, "mc_score_variance", 0.01))
        assert e != FisherEstimate(2.0, "quad_neg_hessian", 0.01)
        assert repr(e) == (
            "FisherEstimate(value=2.0, method='mc_score_variance', error_estimate=0.01)"
        )

    def test_frozen(self):
        e = FisherEstimate(2.0, "closed_form", 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.value = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.method

    def test_dataclass_helpers(self):
        e = FisherEstimate(2.0, "closed_form", 0.0)
        assert [f.name for f in dataclasses.fields(e)] == ["value", "method", "error_estimate"]
        assert dataclasses.asdict(e) == {
            "value": 2.0, "method": "closed_form", "error_estimate": 0.0,
        }
        assert dataclasses.replace(e, value=4.0) == FisherEstimate(4.0, "closed_form", 0.0)
        with pytest.raises(ValueError, match="value must be finite and > 0, got 0.0"):
            dataclasses.replace(e, value=0.0)
        assert pickle.loads(pickle.dumps(e)) == e
        assert list(inspect.signature(FisherEstimate).parameters) == [
            "value", "method", "error_estimate",
        ]

    @pytest.mark.parametrize("args, message", [
        ((1.0, "exact", 0.0), "method must be one of ['closed_form', 'mc_score_variance', "
                              "'quad_neg_hessian', 'quad_score_variance'], got 'exact'"),
        ((0.0, "closed_form", 0.0), "value must be finite and > 0, got 0.0"),
        ((-1.0, "closed_form", 0.0), "value must be finite and > 0, got -1.0"),
        ((INF, "closed_form", 0.0), "value must be finite and > 0, got inf"),
        ((NAN, "closed_form", 0.0), "value must be finite and > 0, got nan"),
        ((5e-324, "closed_form", 0.0), "value must be finite and > 0, got 5e-324, "
                                       "outside the finite, normal doubles"),
        ((2.225073858507201e-308, "closed_form", 0.0), "value must be finite and > 0, "
                                                       "got 2.225073858507201e-308"),
        ((1.0, "closed_form", -1e-300), "error_estimate must be finite and >= 0, got -1e-300"),
        ((1.0, "closed_form", INF), "error_estimate must be finite and >= 0, got inf"),
        ((1.0, "closed_form", NAN), "error_estimate must be finite and >= 0, got nan"),
        # the method is checked first, then the value, then the error bound
        ((NAN, "exact", NAN), "method must be one of"),
        ((NAN, "closed_form", NAN), "value must be finite"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            FisherEstimate(*args)
        assert str(excinfo.value).startswith(message)

    def test_the_smallest_normal_double_is_a_value(self):
        # the subnormals just below it are not (test_validation_messages)
        tiny = 2.2250738585072014e-308
        assert FisherEstimate(tiny, "closed_form", 0.0).value == tiny


class TestQuadResult:
    def test_construction_equality_hash_and_repr(self):
        r = QuadResult(1.5, 1e-12, 512)
        assert QuadResult(value=1.5, error_estimate=1e-12, intervals=512) == r
        assert hash(r) == hash(QuadResult(1.5, 1e-12, 512)) == hash((1.5, 1e-12, 512))
        assert r != QuadResult(1.5, 1e-12, 1024)
        assert repr(r) == "QuadResult(value=1.5, error_estimate=1e-12, intervals=512)"

    def test_frozen_and_dataclass_helpers(self):
        r = QuadResult(1.5, 1e-12, 512)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 2.0
        assert [f.name for f in dataclasses.fields(r)] == ["value", "error_estimate", "intervals"]
        assert dataclasses.asdict(r) == {"value": 1.5, "error_estimate": 1e-12, "intervals": 512}
        assert dataclasses.replace(r, intervals=64) == QuadResult(1.5, 1e-12, 64)
        assert pickle.loads(pickle.dumps(r)) == r


class FloatSub(float):
    pass


def _outcome(call):
    """('ok', type, repr of the value) or ('error', message)."""
    try:
        val = call()
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", type(val), repr(val))


@pytest.mark.parametrize("value", [1.5, -2.0, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
                                   INF, -INF, NAN])
@pytest.mark.parametrize("positive", [False, True])
def test_require_real_agrees_for_every_float_type(value, positive):
    # an exact float, a float subclass and a numpy scalar of one value give
    # one outcome: the value as an exact float, or one error (up to the
    # repr of the argument in its message)
    exact = _outcome(lambda: require_real("x", value, positive=positive))
    for other in (FloatSub(value), np.float64(value)):
        got = _outcome(lambda: require_real("x", other, positive=positive))
        if exact[0] == "ok":
            assert got == exact
        else:
            assert got[0] == "error"
            assert got[1].replace(repr(other), repr(value)) == exact[1]
    kind = "positive and finite" if positive else "finite"
    if math.isfinite(value) and (value > 0.0 or not positive):
        assert exact == ("ok", float, repr(value))
        got = require_real("x", value, positive=positive)
        assert math.copysign(1.0, got) == math.copysign(1.0, value)
    else:
        assert exact == ("error", f"x must be {kind}, got {value!r}")


def test_require_real_keeps_the_sign_of_zero():
    for value in (0.0, -0.0):
        for arg in (value, FloatSub(value), np.float64(value)):
            got = require_real("x", arg)
            assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, value)
