"""Tests of the campaign-spec JSON wire format (repro.service.codec)."""

import pytest

from repro.service.codec import (
    campaign_from_payload,
    payload_from_options,
    settings_from_payload,
)


def test_minimal_payload_defaults_to_baseline_smoke():
    campaign = campaign_from_payload({})
    assert campaign.name == "service"
    assert [c.name for c in campaign.configs] == ["baseline"]
    assert campaign.cores == 1
    assert len(campaign) >= 1


def test_full_payload_round_trips_through_options():
    payload = payload_from_options(
        configs=["baseline"],
        scale="smoke",
        benchmarks=["gzip", "swim"],
        uops=2_000,
        seed=11,
        dtm_policies=("none", "dvfs:target=85"),
        name="sweep",
    )
    campaign = campaign_from_payload(payload)
    assert campaign.name == "sweep"
    assert campaign.settings.benchmarks == ("gzip", "swim")
    assert campaign.settings.uops_per_benchmark == 2_000
    assert campaign.settings.seed == 11
    assert campaign.dtm_policies == ("none", "dvfs:target=85")
    assert len(campaign) == 4  # 2 benchmarks x 2 policies


def test_scenarios_keyword_expands_the_library():
    from repro.scenarios import SCENARIO_NAMES

    settings = settings_from_payload({"benchmarks": ["scenarios"]})
    assert settings.benchmarks == tuple(SCENARIO_NAMES)
    # Scenario-only sweeps turn off the SPEC relative-length table.
    assert settings.honor_relative_length is False


def test_spec_benchmarks_keep_relative_lengths():
    settings = settings_from_payload({"benchmarks": ["gzip", "thermal_virus"]})
    assert settings.honor_relative_length is True


def test_chip_payload_infers_cores_from_mixes():
    payload = payload_from_options(
        per_core_scenarios=[("thermal_virus", "idle_crawl")], uops=1_000
    )
    campaign = campaign_from_payload(payload)
    assert campaign.cores == 2
    assert campaign.is_chip


def test_unknown_fields_rejected():
    with pytest.raises(ValueError, match="unknown campaign spec field"):
        campaign_from_payload({"benchmark": ["gzip"]})


def test_non_object_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        campaign_from_payload(["gzip"])


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="unknown scale"):
        settings_from_payload({"scale": "galactic"})


def test_unknown_preset_raises_domain_error():
    with pytest.raises(ValueError):
        campaign_from_payload({"configs": ["warp_drive"]})


def test_unknown_benchmark_raises_domain_error():
    with pytest.raises((ValueError, KeyError)):
        campaign_from_payload({"benchmarks": ["quake3"]}).cells()


def test_tenant_field_is_tolerated():
    campaign = campaign_from_payload({"tenant": "acme", "benchmarks": ["gzip"]})
    assert campaign.settings.benchmarks == ("gzip",)


def test_configs_accepts_a_bare_string():
    campaign = campaign_from_payload({"configs": "baseline"})
    assert [c.name for c in campaign.configs] == ["baseline"]


def test_contention_travels_on_the_wire():
    payload = payload_from_options(
        per_core_scenarios=[("cache_thrash", "memory_bound")],
        contention="shared_llc:service=256",
    )
    assert payload["contention"] == "shared_llc:service=256"
    campaign = campaign_from_payload(payload)
    assert campaign.contention == "shared_llc:service=256"
    assert campaign.is_chip


@pytest.mark.parametrize(
    "contention, message",
    [
        ("shared_llc:service=fast", "needs an integer"),
        ("crossbar", "unknown contention model 'crossbar'"),
        ("shared_llc:bogus=1", "unknown contention parameter 'bogus'"),
    ],
)
def test_malformed_contention_raises_domain_error(contention, message):
    payload = {"per_core_scenarios": [["cache_thrash", "memory_bound"]], "contention": contention}
    with pytest.raises(ValueError, match=message):
        campaign_from_payload(payload)


def test_contention_on_a_single_core_campaign_is_rejected():
    with pytest.raises(ValueError, match="chip campaign"):
        campaign_from_payload({"benchmarks": ["gzip"], "contention": "shared_llc"})


@pytest.mark.parametrize(
    "field, value",
    [
        ("uops", 1500.9),
        ("seed", True),
        ("cores", 2.5),
        ("uops", False),
        ("interval_cycles", float("inf")),
        ("seed", "1.5"),
    ],
)
def test_booleans_and_fractional_numbers_are_rejected(field, value):
    """Not truncated: ``true`` is not seed 1 and 1500.9 is not 1500 uops."""
    with pytest.raises(ValueError, match=f"{field!r} must be an integer"):
        campaign_from_payload({"benchmarks": ["gzip"], field: value})


def test_a_spec_with_a_fractional_uops_and_a_boolean_seed_is_rejected():
    with pytest.raises(ValueError, match="'uops'"):
        campaign_from_payload({"benchmarks": ["gzip"], "uops": 1500.9, "seed": True})


def test_numeric_strings_and_integral_numbers_are_accepted():
    campaign = campaign_from_payload(
        {"benchmarks": ["gzip"], "uops": "1500", "seed": 3.0, "cores": "1"}
    )
    assert campaign.settings.uops_per_benchmark == 1500
    assert campaign.settings.seed == 3
    assert campaign.cores == 1
