"""The scenario model: strict validation and lossless round trips.

Every shipped spec must survive ``spec -> dict -> JSON -> spec`` with
equality, and hypothesis-generated corruptions of valid documents must
all be rejected with a :class:`~repro.spec.model.SpecError` — never
accepted, never crash with an unrelated exception.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.spec.catalog import CATALOG, STANDARD_VOLUME, get, shipped
from repro.spec.compile import run_spec
from repro.spec.model import (
    FAMILY_PARAMS,
    OPS,
    ClientSpec,
    NetworkSpec,
    OpStep,
    ScenarioSpec,
    SpecError,
)

NAMES = sorted(CATALOG)


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("name", NAMES)
def test_dict_round_trip(name):
    spec = get(name)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", NAMES)
def test_json_round_trip(name):
    spec = get(name)
    again = ScenarioSpec.from_json(spec.to_json())
    assert again == spec
    assert hash(again) == hash(spec)


@pytest.mark.parametrize("name", NAMES)
def test_to_dict_is_plain_json(name):
    """The document form must be pure JSON types, canonically dumpable."""
    text = json.dumps(get(name).to_dict(), sort_keys=True)
    assert json.loads(text) == get(name).to_dict()


@pytest.mark.parametrize("name", NAMES)
def test_shipped_specs_validate_clean(name):
    assert get(name).validate() == []


def test_catalog_is_presentation_ordered_and_closed():
    assert [spec.name for spec in shipped()] == list(CATALOG)
    with pytest.raises(ValueError, match="unknown spec"):
        get("no-such-spec")


def test_with_params_merges():
    spec = get("doc-archive")
    tuned = spec.with_params(reads=5)
    assert tuned.params_dict()["reads"] == 5
    assert spec.params_dict()["reads"] == 60
    assert tuned.params_dict()["containers"] \
        == spec.params_dict()["containers"]


def test_spec_error_carries_every_problem():
    spec = ScenarioSpec(name="Bad Name", kind="testbed", family="script")
    errors = spec.validate()
    assert len(errors) >= 2          # bad name AND empty script
    with pytest.raises(SpecError) as excinfo:
        spec.check()
    assert excinfo.value.errors == tuple(errors)


def test_replay_rejects_unknown_segments_and_strings_elsewhere():
    """``segment`` must name a SEGMENT_SPECS entry; every other replay
    param is a number.  Every problem is listed, in one SpecError."""
    spec = get("replay").with_params(segment="bach", records="all")
    errors = spec.validate()
    assert sorted(errors) == [
        "params: records must be a non-negative number",
        "params: segment 'bach' is not one of purcell, holst, messiaen,"
        " concord",
    ]
    with pytest.raises(SpecError) as excinfo:
        spec.check()
    assert excinfo.value.errors == tuple(errors)


@pytest.mark.parametrize("family", sorted(
    {spec.family for spec in shipped()} - {"replay"}))
def test_string_params_are_rejected_outside_replay(family):
    """Only the replay family takes a string param: ``segment`` is no
    other family's, and a string on a numeric param is an error."""
    spec = next(spec for spec in shipped() if spec.family == family)
    knobs = {"segment": "messiaen"}
    expected = ["params: 'segment' is not a %s parameter" % family]
    for name in FAMILY_PARAMS[family][:1]:
        knobs[name] = "many"
        expected.append("params: %s must be a non-negative number" % name)
    errors = spec.with_params(**knobs).validate()
    assert sorted(errors) == sorted(expected)


# ---------------------------------------------------------------------------
# A field the family would silently ignore is refused, by name
#
# ``Modem`` is NetworkSpec's default profile, so a spec naming it is the
# same value as a spec naming no network at all; the refusals below use
# profiles (and a loss rate) that differ from the default.


@pytest.mark.parametrize("name", ["fleet-golden", "commuter"])
def test_fleet_families_refuse_a_network(name):
    """Every fleet client gets its own Ethernet link."""
    spec = replace(get(name), network=NetworkSpec(profile="WaveLan",
                                                  loss_rate=0.1))
    assert spec.validate() == [
        "network: the %s family builds its own links" % spec.family]


def test_conflict_storm_refuses_what_it_builds_itself():
    """The storm builds its writers, their WaveLan links, their Venus
    config and the shared volume; every spec field for those is an
    error, all listed at once."""
    spec = replace(
        get("conflict-storm"), network=NetworkSpec(profile="WaveLan"),
        venus={"aging_window": 5.0}, volumes=(STANDARD_VOLUME,),
        clients=ClientSpec(cache_capacity=1_000_000,
                           hoard=(("/coda/usr/bob", 100, True),)))
    owned = "the conflict-storm family builds its own writers and volume"
    assert sorted(spec.validate()) == sorted([
        "network: the conflict-storm family builds its own links",
        "venus: " + owned,
        "volumes: " + owned,
        "clients.hoard: " + owned,
        "clients.cache_capacity: " + owned,
    ])


@pytest.mark.parametrize("name", ["conflict-storm", "doc-archive", "replay"])
def test_testbed_families_refuse_a_duration(name):
    """Only a script's duration runs the clock on past the session."""
    assert replace(get(name), duration=5.0).validate() == [
        "duration: the %s family's workload fixes its own duration" % name]


def test_doc_archive_runs_on_its_spec_network():
    """doc-archive builds through the spec's testbed, so its network is
    honoured: the same archive session over a modem reads differently."""
    spec = get("doc-archive").with_params(containers=3, reads=16,
                                          hoarded_containers=1,
                                          commute_at=200.0)
    modem = replace(spec, network=NetworkSpec(profile="Modem"))
    assert spec.network.profile == "WaveLan"
    assert modem.validate() == []
    assert run_spec(modem).summary != run_spec(spec).summary


# ---------------------------------------------------------------------------
# Hypothesis: corrupted documents are rejected, not absorbed


def _corrupt_unknown_top_key(doc, token):
    doc["x_" + token] = 1


def _corrupt_name(doc, token):
    doc["name"] = "Bad Name " + token


def _corrupt_kind(doc, token):
    doc["kind"] = "kind-" + token


def _corrupt_family(doc, token):
    doc["family"] = "family-" + token


def _corrupt_seed_kind(doc, token):
    doc["seed_kind"] = "seeds-" + token


def _corrupt_shards_on_testbed(doc, token):
    doc["kind"] = "testbed"
    doc["shards"] = 4


def _corrupt_shards_too_small(doc, token):
    if doc["kind"] == "fleet":
        doc["shards"] = 1
    else:
        doc["shards"] = 0


def _corrupt_profile(doc, token):
    doc.setdefault("network", {})["profile"] = "Carrier-" + token


def _corrupt_loss_rate(doc, token):
    doc.setdefault("network", {"profile": "Modem"})["loss_rate"] = 1.5


def _corrupt_venus_field(doc, token):
    doc["venus"] = {"no_such_knob_" + token: 1.0}
    doc["kind"] = "testbed"
    if doc.get("family") not in ("script", "conflict-storm",
                                 "doc-archive"):
        doc["family"] = "conflict-storm"
    doc.pop("shards", None)
    doc.pop("duration", None)
    doc.pop("clients", None)
    doc.pop("workload", None)
    doc.pop("params", None)


def _corrupt_script_op(doc, token):
    doc["workload"] = {"script": [{"op": "op-" + token}]}


def _corrupt_op_missing_required(doc, token):
    doc["workload"] = {"script": [{"op": "write", "path": "/coda/x"}]}


def _corrupt_negative_sleep(doc, token):
    doc["workload"] = {"script": [{"op": "sleep", "seconds": -1.0}]}


def _corrupt_param(doc, token):
    doc["params"] = {"param_" + token: 1}


def _corrupt_mix_on_testbed(doc, token):
    doc["kind"] = "testbed"
    doc["workload"] = {"mix": {"reads_per_day": 10.0}}


CORRUPTIONS = [
    _corrupt_unknown_top_key,
    _corrupt_name,
    _corrupt_kind,
    _corrupt_family,
    _corrupt_seed_kind,
    _corrupt_shards_on_testbed,
    _corrupt_shards_too_small,
    _corrupt_profile,
    _corrupt_loss_rate,
    _corrupt_venus_field,
    _corrupt_script_op,
    _corrupt_op_missing_required,
    _corrupt_negative_sleep,
    _corrupt_param,
    _corrupt_mix_on_testbed,
]


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(NAMES),
       corrupt=st.sampled_from(CORRUPTIONS),
       token=st.text(alphabet="abcdefghij", min_size=1, max_size=8))
def test_corrupted_documents_are_rejected(name, corrupt, token):
    doc = get(name).to_dict()
    corrupt(doc, token)
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict(doc)


@settings(max_examples=60, deadline=None)
@given(junk=st.one_of(
    st.none(), st.integers(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3)))
def test_non_mapping_documents_are_rejected(junk):
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict(junk)


def test_invalid_json_is_a_spec_error():
    with pytest.raises(SpecError, match="not valid JSON"):
        ScenarioSpec.from_json("{nope")


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(sorted(OPS)),
       extra=st.sampled_from(["size", "seconds", "priority", "path"]))
def test_ops_reject_fields_outside_their_signature(op, extra):
    required, optional = OPS[op]
    if extra in required or extra in optional:
        return
    values = {"size": 10, "seconds": 1.0, "priority": 5, "path": "/x"}
    fields = {name: values[name] for name in required}
    fields[extra] = values[extra]
    step = OpStep(op=op, **fields)
    assert any("does not take" in error for error in step.validate("op"))


def test_family_params_cover_every_family():
    from repro.spec.model import FLEET_FAMILIES, TESTBED_FAMILIES
    assert set(FAMILY_PARAMS) == set(TESTBED_FAMILIES) | set(FLEET_FAMILIES)
