"""The number rules of ``hrcslab.errors``, and every count argument of the
package checked by the one integer rule with its bounds."""

import re

import numpy as np
import pytest

from hrcslab import (
    ConfigurationError,
    EnsembleStats,
    ExperimentSpec,
    HrcsConfig,
    enumerate_joint_distribution,
    hea_gate_count,
    instantiate_circuit,
    marginalize,
    power_sum_exact,
    run_experiment,
    sample_haar_state,
    sample_haar_unitary,
    sample_hea_params,
    sample_trajectories,
    theory,
    xeb_estimate,
)
from hrcslab.engine import instance_seed
from hrcslab.errors import _as_int
from hrcslab.estimators import XEB_MAX_BITS, ks_distance_to_porter_thomas
from hrcslab.theory import MAX_EXPONENT


class TestAsInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_come_back_as_the_python_int(self, value):
        got = _as_int("k", value, 1, 5)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, np.float64(3.0), "3", None])
    def test_non_integers_refused(self, value):
        with pytest.raises(ConfigurationError, match=r"^k must be an integer, got "):
            _as_int("k", value, 1, 5)

    def test_bounds_and_their_wording(self):
        assert _as_int("k", -7) == -7
        assert _as_int("k", 1, 1) == 1 and _as_int("k", 5, 1, 5) == 5
        with pytest.raises(ConfigurationError, match=r"^k must be >= 1, got 0$"):
            _as_int("k", 0, 1)
        for value in (0, 6):
            with pytest.raises(ConfigurationError, match=rf"^k must be in \[1, 5\], got {value}$"):
                _as_int("k", value, 1, 5)


CONFIG = HrcsConfig(2, 1, 2)
STEPS = instantiate_circuit(CONFIG, 0)
DIST = enumerate_joint_distribution(CONFIG, STEPS)


def rng():
    return np.random.default_rng(3)


def spec(**fields):
    return ExperimentSpec(**{"kind": "xeb", "n_system": 2, "n_bath": 1, "steps": [2],
                             "instances": 2, "shots": 3, **fields})


# every count argument: (the name its message gives, a call with the count,
# a valid value, least, most); None for a bound the count does not have
COUNTS = {
    "HrcsConfig.n_system": ("n_system", lambda v: HrcsConfig(v, 1, 2).n_system, 2, 1, None),
    "HrcsConfig.n_bath": ("n_bath", lambda v: HrcsConfig(2, v, 2).n_bath, 1, 1, None),
    "HrcsConfig.steps": ("steps", lambda v: HrcsConfig(2, 1, v).steps, 2, 1, None),
    "HrcsConfig.hea_layers": ("hea_layers", lambda v: HrcsConfig(
        2, 1, 2, unitary_source="hea", hea_layers=v).hea_layers, 2, 1, None),
    "HrcsConfig.master_seed": ("master_seed", lambda v: HrcsConfig(
        2, 1, 2, master_seed=v).master_seed, 5, None, None),
    "instance_seed": ("instance index", lambda v: instance_seed(CONFIG, v), 3, None, None),
    "sample_trajectories": ("n_shots", lambda v: sample_trajectories(
        CONFIG, STEPS, v, 1.0, rng()).model_probabilities, 4, 0, None),
    "marginalize": ("per_step step index", lambda v: marginalize(
        DIST, CONFIG, "per_step", v), 1, 1, 2),
    "power_sum_exact": ("power-sum order", lambda v: power_sum_exact(DIST, v), 2, 1, None),
    "xeb_estimate": ("n_eff", lambda v: xeb_estimate([1e-300, 2e-300], v), 3, 0, XEB_MAX_BITS),
    "ks_distance_to_porter_thomas": ("n_eff", lambda v: ks_distance_to_porter_thomas(
        [0.1, 0.2], v), 3, 0, XEB_MAX_BITS),
    "EnsembleStats": ("count", lambda v: EnsembleStats(v, 0.5, 0.1).count, 2, 1, None),
    "ExperimentSpec.n_system": ("n_system", lambda v: spec(n_system=v).n_system, 2, 1, None),
    "ExperimentSpec.n_bath": ("n_bath", lambda v: spec(n_bath=v).n_bath, 1, 1, None),
    "ExperimentSpec.steps": ("steps", lambda v: spec(steps=[v]).steps, 2, 1, None),
    "ExperimentSpec.instances": ("instances", lambda v: spec(instances=v).instances, 2, 1, None),
    "ExperimentSpec.shots": ("shots", lambda v: spec(shots=v).shots, 3, 1, None),
    "ExperimentSpec.hea_layers": ("hea_layers", lambda v: spec(
        unitary_source="hea", hea_layers=v).hea_layers, 2, 1, None),
    "ExperimentSpec.master_seed": ("master_seed", lambda v: spec(
        master_seed=v).master_seed, 5, None, None),
    "run_experiment": ("workers", lambda v: run_experiment(ExperimentSpec(
        kind="theory_table", n_system=2, n_bath=1, steps=[2], theory_family="ideal_xeb"),
        workers=v), 1, 1, None),
    "sample_hea_params.n_qubits": ("n_qubits", lambda v: sample_hea_params(
        v, 1, rng()).thetas, 3, 2, None),
    "sample_hea_params.layers": ("layers", lambda v: sample_hea_params(
        3, v, rng()).thetas, 2, 1, None),
    "hea_gate_count.n_qubits": ("n_qubits", lambda v: hea_gate_count(v, 2), 3, 2, None),
    "hea_gate_count.layers": ("layers", lambda v: hea_gate_count(3, v), 2, 1, None),
    "sample_haar_unitary.dim": ("dim", lambda v: sample_haar_unitary(v, rng()), 4, 2, None),
    "sample_haar_unitary.columns": ("columns", lambda v: sample_haar_unitary(
        4, rng(), v), 2, 1, 4),
    "sample_haar_unitary.count": ("count", lambda v: sample_haar_unitary(
        4, rng(), 2, v), 2, 1, None),
    "sample_haar_state": ("dim", lambda v: sample_haar_state(v, rng()), 4, 1, None),
    # a form that multiplies three register dimensions (noisy_xeb) holds a
    # third of the register of one that multiplies one (ideal_xeb)
    "ideal_xeb.n_system": ("n_system", lambda v: theory.ideal_xeb(v, 1, 2),
                           2, 1, MAX_EXPONENT - 1),
    "ideal_xeb.n_bath": ("n_bath", lambda v: theory.ideal_xeb(2, v, 2), 1, 1, MAX_EXPONENT - 2),
    "ideal_xeb.steps": ("steps", lambda v: theory.ideal_xeb(2, 1, v), 2, 1, None),
    "noisy_xeb.n_system": ("n_system", lambda v: theory.noisy_xeb(v, 1, 2, 0.5),
                           2, 1, MAX_EXPONENT // 3 - 1),
    "noisy_xeb.n_bath": ("n_bath", lambda v: theory.noisy_xeb(2, v, 2, 0.5),
                         1, 1, MAX_EXPONENT // 3 - 2),
    "haar_power_sum.n_qubits": ("n_qubits", lambda v: theory.haar_power_sum(v, 2),
                                3, 1, MAX_EXPONENT),
    "haar_power_sum.order": ("power-sum order", lambda v: theory.haar_power_sum(3, v),
                             2, 1, None),
    "hrcs_power_sum.order": ("power-sum order", lambda v: theory.hrcs_power_sum(2, 1, 2, v),
                             2, 2, None),
    "critical_steps.order": ("power-sum order", lambda v: theory.critical_steps(2, 1, 0.5, v),
                             2, 2, None),
}


def same(got, want) -> bool:
    """The same type and value; arrays bitwise."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("argument", COUNTS)
class TestCountArguments:
    def bad_values(self, valid, least, most):
        values = [True, float(valid), "1"]
        values += [] if least is None else [least - 1]
        return values + ([] if most is None else [most + 1])

    def test_each_bad_value_refused_by_name(self, argument):
        name, call, valid, least, most = COUNTS[argument]
        for value in self.bad_values(valid, least, most):
            with pytest.raises(ConfigurationError, match=re.escape(name)):
                call(value)

    def test_numpy_integer_is_the_python_int(self, argument):
        name, call, valid, least, most = COUNTS[argument]
        assert same(call(np.int64(valid)), call(valid))

    def test_each_bound_is_admitted(self, argument):
        name, call, valid, least, most = COUNTS[argument]
        for value in (least, most):
            if value is not None:
                call(value)
