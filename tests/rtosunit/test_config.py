"""RTOSUnit configuration rules (§4) and the letter naming scheme."""

import pytest

from repro.errors import ConfigurationError
from repro.rtosunit.config import EVALUATED_CONFIGS, RTOSUnitConfig, parse_config


class TestValidity:
    def test_vanilla(self):
        assert RTOSUnitConfig().is_vanilla

    def test_load_requires_store(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(load=True)

    def test_dirty_requires_store(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(dirty=True)

    def test_omit_requires_load(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(store=True, omit=True)

    def test_preload_requires_slt(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(store=True, load=True, preload=True)

    def test_preload_incompatible_with_dirty(self):
        """§4.7: preloading is incompatible with the dirty-bit option."""
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(store=True, load=True, sched=True,
                           preload=True, dirty=True)

    def test_cv32rt_standalone(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(cv32rt=True, store=True)

    def test_negative_list_length(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(list_length=-1)

    def test_sched_needs_list(self):
        with pytest.raises(ConfigurationError):
            RTOSUnitConfig(sched=True, list_length=0)

    def test_all_evaluated_configs_valid(self):
        for name in EVALUATED_CONFIGS:
            parse_config(name)  # must not raise


class TestDerivedProperties:
    def test_switch_rf_only_for_store_without_load(self):
        assert RTOSUnitConfig(store=True).uses_switch_rf
        assert not RTOSUnitConfig(store=True, load=True).uses_switch_rf
        assert not RTOSUnitConfig(sched=True).uses_switch_rf

    def test_timer_autoreset_with_sched(self):
        assert RTOSUnitConfig(sched=True).hw_timer_autoreset
        assert not RTOSUnitConfig(store=True).hw_timer_autoreset


class TestNaming:
    @pytest.mark.parametrize("name", EVALUATED_CONFIGS)
    def test_name_round_trip(self, name):
        assert parse_config(name).name == name

    def test_split_spelling(self):
        config = RTOSUnitConfig(store=True, load=True, sched=True,
                                preload=True)
        assert config.name == "SPLIT"

    def test_parse_case_insensitive(self):
        assert parse_config("slt").name == "SLT"
        assert parse_config("Vanilla").is_vanilla
        assert parse_config("cv32rt").cv32rt

    def test_parse_rejects_unknown_letter(self):
        with pytest.raises(ConfigurationError):
            parse_config("SX")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            parse_config("SS")

    def test_parse_list_length(self):
        assert parse_config("T", list_length=64).list_length == 64

    def test_str(self):
        assert str(parse_config("SDLOT")) == "SDLOT"
