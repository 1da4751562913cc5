"""Property tests: every config that ``parse_config`` rejects names its field.

Valid harness configs are mutated in their top-level, target, method,
kernel and sweep fields: wrong types, NaN and infinities, negatives,
zeros, unknown keys and deleted keys.  Whatever the mutation,
``parse_config`` either accepts the config or raises a ``ConfigError``
whose message starts with a field path.  An unknown key in any section
is always rejected, and the message names that section, and a target
field of the kind that the chosen variant would drop is rejected under
its own path.  Sizes stay at most 64, so no mutated config builds a
large target.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from islandmc.harness import ConfigError, parse_config

# "target.sigma: ...", "sweep[0].N: ...", "method.kernel.mass[2]: ...", "top level: ..."
FIELD_PATH = re.compile(r"(top level|target|method|sweep|replicates|master_seed|output)(\.\w+|\[\d+\])*: ")

SIZE = st.integers(1, 64)
BAD_VALUES = st.sampled_from([
    None, True, False, "x", "", [], [1.0], [math.nan, 1.0], {}, {"kind": "pcn"},
    math.nan, math.inf, -math.inf, -1, -1.0, -64, 0, 0.0, 0.5, 1.5, 2.5, 64, 1e308, -1e-308,
])


@st.composite
def valid_configs(draw):
    d, m = draw(SIZE), draw(st.integers(0, 64))
    target = draw(st.sampled_from([
        {"kind": "gaussian", "d": d, "m": m, "sigma": 0.5, "seed": 1},
        {"kind": "gaussian", "d": d, "m": m, "sigma": 2.0, "theta_star": [1.0] * d},
        {"kind": "gmm", "d": d, "weight": 0.3},
        {"kind": "gmm", "d": d, "weights": [0.25, 0.75], "means": [[1.0] * d, [-1.0] * d]},
        {"kind": "logistic", "d": d, "m": max(m, 1), "seed": 2, "prior_var": 4.0},
    ]))
    kernel = draw(st.sampled_from([
        {"kind": "pcn", "beta": 0.5, "use_scaling": True, "scaling_floor": 1e-8, "target_accept": 0.3},
        {"kind": "hmc", "step_size": 0.1, "leapfrog_steps": 3, "mass": 1.0, "target_accept": 0.6},
        {"kind": "hmc", "step_size": 0.1, "leapfrog_steps": 3, "mass": [2.0] * d},
    ]))
    point = {"N": draw(st.integers(2, 64)), "P": draw(SIZE), "M": draw(st.integers(0, 64)),
             "B": draw(st.integers(0, 64)), "T": draw(SIZE)}
    method = draw(st.sampled_from([
        {"kind": "smc_par", "ess_fraction": 0.5, "max_stages": 50, "resampling": "systematic",
         "adapt_steps": True},
        {"kind": "smc_par", "schedule": [0.25, 0.5, 1.0], "adapt_steps": False},
        {"kind": "ais", "schedule": [0.0, 0.5, 1.0]},
        {"kind": "ais"},
        {"kind": "mcmc_par"},
    ]))
    if method["kind"] == "mcmc_par":
        point["T"] = 1  # parallel chains take no thinning
    return {"target": target, "method": {**method, "kernel": kernel}, "sweep": [point],
            "replicates": draw(st.integers(1, 4)), "master_seed": draw(st.integers(0, 64))}


KEYS = {
    "top level": ["target", "method", "sweep", "replicates", "master_seed", "output", "unknown"],
    "target": ["kind", "d", "m", "sigma", "seed", "theta_star", "weight", "weights", "means",
               "prior_var", "csv", "unknown"],
    "method": ["kind", "kernel", "ess_fraction", "max_stages", "resampling", "schedule",
               "adapt_steps", "unknown"],
    "kernel": ["kind", "beta", "use_scaling", "scaling_floor", "target_accept", "step_size",
               "leapfrog_steps", "mass", "unknown"],
    "sweep": ["N", "P", "M", "B", "T", "unknown"],
}


def config_sections(cfg):
    """Each section of ``cfg`` by its name in ``KEYS``."""
    return {"top level": cfg, "target": cfg["target"], "method": cfg["method"],
            "kernel": cfg["method"]["kernel"], "sweep": cfg["sweep"][0]}


@st.composite
def mutated_configs(draw, section):
    """A valid config with one field of ``section`` mutated, and up to two more anywhere."""
    cfg = draw(valid_configs())
    # taken before any mutation, which may replace method.kernel
    sections = config_sections(cfg)
    for name in [section] + draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=2)):
        fields = sections[name]
        # mostly a field the config sets, sometimes any known or unknown one
        key = draw(st.sampled_from(sorted(fields) or KEYS[name]) | st.sampled_from(KEYS[name]))
        if draw(st.integers(0, 4)) == 0 and key in fields:
            del fields[key]
        else:
            fields[key] = draw(BAD_VALUES | SIZE)
    return cfg


@pytest.mark.parametrize("section", sorted(KEYS))
@settings(derandomize=True, deadline=None, max_examples=200, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_config_rejection_names_a_field(section, data):
    cfg = data.draw(mutated_configs(section))
    try:
        parse_config(cfg)
    except ConfigError as exc:
        assert FIELD_PATH.match(str(exc)), str(exc)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(valid_configs())
def test_valid_configs_parse(cfg):
    parse_config(cfg)


SECTION_PATHS = {"top level": "top level", "target": "target", "method": "method",
                 "kernel": "method.kernel", "sweep": "sweep[0]"}
KNOWN = set().union(*KEYS.values()) - {"unknown"}


@st.composite
def unknown_keys(draw, words):
    """A one-letter misspelling of one of ``words``, or any name, that no section knows."""
    word = draw(st.sampled_from(sorted(words)))
    i = draw(st.integers(0, len(word) - 1))
    c = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyzNPMBT_0"))
    typos = [word[:i] + word[i + 1:], word[:i] + c + word[i:], word[:i] + c + word[i + 1:], word + c]
    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_ ]{0,11}", fullmatch=True)
    return draw((st.sampled_from(typos) | name).filter(lambda key: key and key not in KNOWN))


@pytest.mark.parametrize("section", sorted(SECTION_PATHS))
@settings(derandomize=True, deadline=None, max_examples=100, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_unknown_key_is_rejected_with_its_section_path(section, data):
    cfg = data.draw(valid_configs())
    fields = config_sections(cfg)[section]
    key = data.draw(unknown_keys(fields))
    fields[key] = data.draw(BAD_VALUES | SIZE)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert str(err.value).startswith(f"{SECTION_PATHS[section]}: unknown fields [{key!r}]"), str(err.value)


# target variants, with the fields of their kind that they drop; none of
# those fields selects another variant
VARIANTS = {
    "gmm bimodal": ({"kind": "gmm", "d": 2, "weight": 0.3}, ["weights"]),
    "gmm explicit": ({"kind": "gmm", "d": 2, "weights": [0.5, 0.5], "means": [[1.0, 1.0], [-1.0, -1.0]]},
                     ["weight"]),
    "logistic csv": ({"kind": "logistic", "csv": None, "prior_var": 4.0}, ["d", "m", "seed"]),
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    path.write_text("x1,label\n0.5,1\n-1.0,0\n")
    return str(path)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(derandomize=True, deadline=None, max_examples=50, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_target_field_the_variant_drops_is_named(csv_path, variant, data):
    cfg = data.draw(valid_configs())
    target, dropped = VARIANTS[variant]
    cfg["target"] = {k: csv_path if k == "csv" else v for k, v in target.items()}
    added = data.draw(st.lists(st.sampled_from(dropped), min_size=1, unique=True))
    for key in added:
        cfg["target"][key] = data.draw(BAD_VALUES | SIZE)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert str(err.value).startswith(f"target.{min(added)}: not used "), str(err.value)
