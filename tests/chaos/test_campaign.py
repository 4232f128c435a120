"""Campaign determinism, classification and the chaos-off differential."""

import json

import pytest

from repro.chaos import ChaosPolicy, install, uninstall
from repro.chaos.campaign import (
    OUTCOMES,
    CampaignSpec,
    campaign_dict,
    format_campaign,
    run_campaign,
)
from repro.dse.executor import GridPoint, execute_point
from repro.errors import ChaosInjectionError
from repro.harness.export import run_dict


def _quick_spec():
    # The cheapest deterministic episode pair: one healing, one degrading.
    return CampaignSpec(seed=42, episodes=(
        "cache-read-corrupt", "worker-crash-poison"))


class TestCampaignRuns:
    def test_outcomes_and_healing_proof(self, tmp_path):
        campaign = run_campaign(_quick_spec(), workdir=str(tmp_path))
        by_name = {r.name: r for r in campaign.results}
        corrupt = by_name["cache-read-corrupt"]
        assert corrupt.outcome == "detected"
        assert "cache_corrupt_evictions=1" in corrupt.detail
        poison = by_name["worker-crash-poison"]
        assert poison.outcome == "degraded"
        assert "PoisonPointError" in poison.detail
        assert campaign.silent_corruptions == 0
        assert campaign.counts()["failed"] == 0

    def test_build_corrupt_episode_heals_through_the_build_cache(
            self, tmp_path):
        # Its second submit builds the same kernel, so the build cache
        # hit meets the injected bit flip; the digest check evicts the
        # image and the kernel is assembled again.
        campaign = run_campaign(
            CampaignSpec(seed=42, episodes=("build-read-corrupt",)),
            workdir=str(tmp_path))
        (result,) = campaign.results
        assert result.outcome == "detected"
        assert "build_corrupt_evictions=1" in result.detail
        assert campaign.silent_corruptions == 0

    def test_table_is_byte_identical_across_runs(self, tmp_path):
        first = run_campaign(_quick_spec(), workdir=str(tmp_path / "a"))
        second = run_campaign(_quick_spec(), workdir=str(tmp_path / "b"))
        assert format_campaign(first) == format_campaign(second)
        assert campaign_dict(first) == campaign_dict(second)

    def test_progress_hook_fires_per_episode(self, tmp_path):
        seen = []
        run_campaign(_quick_spec(), workdir=str(tmp_path),
                     progress=lambda r: seen.append(r.name))
        assert seen == ["cache-read-corrupt", "worker-crash-poison"]

    def test_json_export_shape(self, tmp_path):
        campaign = run_campaign(_quick_spec(), workdir=str(tmp_path))
        payload = campaign_dict(campaign)
        assert payload["seed"] == 42
        assert set(payload["counts"]) == set(OUTCOMES)
        assert payload["silent_corruptions"] == 0
        for episode in payload["episodes"]:
            assert set(episode) == {"name", "site", "kind", "outcome",
                                    "detail"}


class TestCampaignGuards:
    def test_unknown_episode_rejected(self, tmp_path):
        with pytest.raises(ChaosInjectionError, match="unknown episodes"):
            run_campaign(CampaignSpec(episodes=("not-a-thing",)),
                         workdir=str(tmp_path))

    def test_preinstalled_policy_rejected(self, tmp_path):
        install(ChaosPolicy())
        try:
            with pytest.raises(ChaosInjectionError, match="clean slate"):
                run_campaign(_quick_spec(), workdir=str(tmp_path))
        finally:
            uninstall()

    def test_quick_spec_names_real_episodes(self, tmp_path):
        # CampaignSpec.quick must never drift from the episode registry.
        from repro.chaos.campaign import _episodes

        known = {episode.name for episode in _episodes()}
        assert set(CampaignSpec.quick().episodes) <= known


class TestChaosOffDifferential:
    def test_uninstalled_hooks_change_nothing(self):
        """With no policy the hooked paths are byte-identical repeats."""
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong",
                          iterations=2, seed=0)
        first = json.dumps(run_dict(execute_point(point)), sort_keys=True)
        second = json.dumps(run_dict(execute_point(point)), sort_keys=True)
        assert first == second
