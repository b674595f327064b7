"""The RunProfile API and the deprecated quick= compatibility path."""

import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.profiles import (
    FULL,
    QUICK,
    RunProfile,
    available_profiles,
    resolve_profile,
)


class TestRunProfile:
    def test_canonical_profiles(self):
        assert QUICK.is_reduced and not FULL.is_reduced
        assert available_profiles() == ["full", "quick"]

    def test_count_selects_budget(self):
        assert QUICK.count(quick=400, full=10000) == 400
        assert FULL.count(quick=400, full=10000) == 10000

    def test_scale_shrinks_budgets_with_floor(self):
        smoke = RunProfile("smoke", reduced=True, scale=0.5)
        assert smoke.count(quick=400, full=10000) == 200
        assert smoke.count(quick=1, full=10) == 1  # never below one

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunProfile("", reduced=True)
        with pytest.raises(ConfigurationError):
            RunProfile("x", scale=0)

    def test_dict_round_trip(self):
        profile = RunProfile("smoke", reduced=True, scale=0.25)
        assert RunProfile.from_dict(profile.to_dict()) == profile

    def test_telemetry_round_trip(self):
        profile = RunProfile("smoke", reduced=True).with_telemetry()
        assert profile.telemetry
        assert RunProfile.from_dict(profile.to_dict()) == profile

    def test_with_telemetry_is_identity_when_unchanged(self):
        assert QUICK.with_telemetry(False) is QUICK
        enabled = QUICK.with_telemetry()
        assert enabled is not QUICK
        assert enabled.with_telemetry(True) is enabled

    def test_from_dict_defaults_telemetry_off(self):
        # Manifests written before the telemetry field must still load.
        data = QUICK.to_dict()
        del data["telemetry"]
        assert RunProfile.from_dict(data).telemetry is False

    def test_from_dict_ignores_retired_engine_field(self):
        # Profiles once carried the cache-core choice; manifests written
        # then must still load, to the same profile.
        data = dict(QUICK.to_dict(), engine="fast")
        assert RunProfile.from_dict(data) == QUICK
        assert "engine" not in QUICK.to_dict()


class TestResolveProfile:
    def test_none_means_full(self):
        assert resolve_profile(None) is FULL

    def test_names_resolve(self):
        assert resolve_profile("quick") is QUICK
        assert resolve_profile("full") is FULL

    def test_instances_pass_through(self):
        custom = RunProfile("custom", reduced=True, scale=2.0)
        assert resolve_profile(custom) is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_profile("warp-speed")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_profile(3.14)

    def test_quick_flag_removed_with_pointer_at_runprofile(self):
        # The alias was deprecated when profiles landed and is now a
        # tombstone: a TypeError whose message names the replacement.
        with pytest.raises(TypeError, match="RunProfile"):
            resolve_profile(quick=True)
        with pytest.raises(TypeError, match="RunProfile"):
            resolve_profile(quick=False)

    def test_legacy_positional_bool_removed(self):
        with pytest.raises(TypeError, match="quick= flag has been removed"):
            resolve_profile(True)


class TestRemovedQuickEndToEnd:
    def test_run_experiment_quick_alias_raises(self):
        with pytest.raises(TypeError, match="RunProfile"):
            run_experiment("table4", quick=True)

    def test_module_run_rejects_quick_kwarg(self):
        from repro.experiments import table4

        with pytest.raises(TypeError):
            table4.run(quick=True)

    def test_profile_threads_through_params(self):
        result = run_experiment("table2", profile="quick")
        assert result.params["trials"] == 400
        # full profile picks the paper-scale budget (not executed here:
        # the profile maths alone proves the wiring).
        assert QUICK.count(quick=400, full=10000) == 400
