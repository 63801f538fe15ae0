"""Task keys stay byte-identical to the canonical document digest.

:func:`serialize.task_key` assembles its digest text from a per-config
encoding cache.  Every key must still equal the SHA-256 of
``json.dumps(document, sort_keys=True, separators=(",", ":"))``, and
it must not depend on which of two equal-but-differently-typed configs
(``threshold=0`` vs ``0.0`` vs ``False``) a process met first.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.experiment import Experiment
from repro.orchestration import serialize
from repro.scenarios.model import consolidation_scenario
from repro.sim.config import SystemConfig, scaled_four_core, scaled_two_core


def reference_key(kind, config, **params):
    """The digest as defined: one ``json.dumps`` of the whole document."""
    document = {
        "schema": serialize.SCHEMA_VERSION,
        "version": __version__,
        "kind": kind,
        "config": dataclasses.asdict(config),
        "params": params,
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def cold_cache():
    serialize._config_text.cache_clear()
    yield
    serialize._config_text.cache_clear()


#: every task shape's params: alone, group, scenario, non-default
#: policy params and a governor
PARAMS = {
    "alone": ("alone", {"benchmark": "lbm"}),
    "group": ("group", {"group": "G2-4", "policy": "cooperative"}),
    "scenario": (
        "scenario",
        {
            "scenario": serialize.scenario_to_dict(
                consolidation_scenario(("lbm", "mcf"), (1,), 50_000)
            ),
            "policy": "ucp",
        },
    ),
    "policy-params": (
        "group",
        {"group": "G2-4", "policy": "cooperative", "policy_params": {"seed": 7}},
    ),
    "governor": (
        "group",
        {
            "group": "G2-4",
            "policy": "ucp",
            "governor": {"name": "coordinated", "params": {"qos_target": 0.9}},
        },
    ),
}

#: equal values of one field, each encoding differently
VARIANTS = {
    "threshold": (0, 0.0, False, -0.0),
    "umon_decay": (0, 0.0, False, -0.0),
}


def equal_configs(field, values):
    base = scaled_two_core(refs_per_core=4_000)
    return [dataclasses.replace(base, **{field: value}) for value in values]


class TestByteIdentity:
    @pytest.mark.parametrize("shape", sorted(PARAMS))
    @pytest.mark.parametrize("factory", [scaled_two_core, scaled_four_core])
    def test_default_configs(self, shape, factory):
        kind, params = PARAMS[shape]
        config = factory()
        for _ in range(2):  # a cold, then a warm encoding
            assert serialize.task_key(kind, config, **params) == reference_key(
                kind, config, **params
            )

    @pytest.mark.parametrize("shape", sorted(PARAMS))
    @pytest.mark.parametrize("field", sorted(VARIANTS))
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_equal_values_of_other_types_keep_their_own_key(
        self, shape, field, reverse
    ):
        kind, params = PARAMS[shape]
        configs = equal_configs(field, VARIANTS[field])
        assert all(config == configs[0] for config in configs)
        assert len({hash(config) for config in configs}) == 1
        if reverse:
            configs.reverse()
        keys = [serialize.task_key(kind, config, **params) for config in configs]
        assert keys == [reference_key(kind, config, **params) for config in configs]
        assert len(set(keys)) == len(configs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.booleans(),
                    st.integers(0, 1),
                    st.sampled_from([0.0, -0.0, 0.05, 1.0]),
                ),
                st.one_of(st.just(False), st.just(0), st.sampled_from([0.0, -0.0, 0.5])),
                st.sampled_from(sorted(PARAMS)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_drawn_configs_in_any_order(self, draws):
        base = scaled_two_core(refs_per_core=4_000)
        for threshold, decay, shape in draws:
            kind, params = PARAMS[shape]
            config = dataclasses.replace(base, threshold=threshold, umon_decay=decay)
            assert serialize.task_key(kind, config, **params) == reference_key(
                kind, config, **params
            )


class TestConfigToken:
    def test_token_covers_every_encoded_field(self):
        # The token is the dataclass repr, so a field hidden from repr
        # would be encoded but not told apart.
        config = scaled_two_core()
        for value in (config, config.l1):
            assert all(field.repr for field in dataclasses.fields(value))

    def test_equal_configs_share_one_encoding(self, monkeypatch):
        encoded = []
        fingerprint = serialize.config_fingerprint

        def counting(config):
            encoded.append(config)
            return fingerprint(config)

        monkeypatch.setattr(serialize, "config_fingerprint", counting)
        config = scaled_two_core()
        twin = SystemConfig(**{
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if field.init
        })
        first = Experiment("G2-4", "ucp", config).task_key()
        assert Experiment("G2-4", "ucp", twin).task_key() == first
        serialize.task_key("group", twin, group="G2-8", policy="cpe")
        assert len(encoded) == 1
