"""Every config surface rejects nonsensical knobs with the field named."""

import dataclasses

import pytest

from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64, FunctionalUnitMix
from repro.ir.builders import GraphBuilder
from repro.resilience.errors import ConfigError
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import SimulationEngine
from repro.workloads.base import WorkloadOptions

PARAMS = parameter_set("ARK")


def _graph():
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", PARAMS.max_level),
            b.input_ciphertext("y", PARAMS.max_level))
    return b.graph


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"max_group_size": 0}, "max_group_size"),
        ({"max_group_size": 2.5}, "max_group_size"),
        ({"keep_fraction": 0.0}, "keep_fraction"),
        ({"keep_fraction": 1.5}, "keep_fraction"),
        ({"constant_residency_fraction": -0.1}, "constant_residency_fraction"),
        ({"constant_residency_fraction": 1.1}, "constant_residency_fraction"),
        ({"min_ntt_tile": 3}, "min_ntt_tile"),
        ({"min_ntt_tile": 1}, "min_ntt_tile"),
        ({"constant_share": 0}, "constant_share"),
        ({"stream_window": 0}, "stream_window"),
        ({"max_search_seconds": 0.0}, "max_search_seconds"),
        ({"max_search_nodes": -1}, "max_search_nodes"),
    ],
)
def test_scheduler_config_rejects(kwargs, field):
    with pytest.raises(ConfigError) as exc:
        SchedulerConfig(**kwargs)
    assert exc.value.field == field
    assert field in str(exc.value)


def test_scheduler_config_is_still_a_value_error():
    with pytest.raises(ValueError):
        SchedulerConfig(keep_fraction=-1.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"sram_capacity_mb": -256.0}, "sram_capacity_mb"),
        ({"sram_capacity_mb": 0.0}, "sram_capacity_mb"),
        ({"lanes_per_pe": 0}, "lanes_per_pe"),
        ({"num_pes": -4}, "num_pes"),
        ({"frequency_ghz": 0.0}, "frequency_ghz"),
        ({"dram_bandwidth_tbs": -1.0}, "dram_bandwidth_tbs"),
        ({"register_file_kb": -8.0}, "register_file_kb"),
        ({"mesh_dims": (0, 8)}, "mesh_dims"),
        ({"mesh_dims": (2, 2)}, "mesh_dims"),  # 4 slots < 64 PEs
    ],
)
def test_hardware_config_rejects(kwargs, field):
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(CROPHE_64, **kwargs)
    assert exc.value.field == field


def test_fu_mix_rejects_bad_fraction():
    with pytest.raises(ConfigError) as exc:
        FunctionalUnitMix(ntt=1.2, elementwise=-0.2, bconv=0.0,
                          automorphism=0.0)
    assert exc.value.field in ("ntt", "elementwise")


def test_fu_mix_rejects_non_partition():
    with pytest.raises(ConfigError) as exc:
        FunctionalUnitMix(ntt=0.5, elementwise=0.1, bconv=0.1,
                          automorphism=0.1)
    assert exc.value.field == "fu_mix"


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"rotation_strategy": "telepathy"}, "rotation_strategy"),
        ({"r_hyb": 0}, "r_hyb"),
        ({"ntt_split": (3, 256)}, "ntt_split[0]"),
        ({"ntt_split": (256, 0)}, "ntt_split[1]"),
    ],
)
def test_workload_options_reject(kwargs, field):
    with pytest.raises(ConfigError) as exc:
        WorkloadOptions(**kwargs)
    assert exc.value.field == field


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"log_n": 1}, "log_n"),
        ({"max_level": -1}, "max_level"),
        ({"dnum": 0}, "dnum"),
        ({"alpha": 0}, "alpha"),
    ],
)
def test_ckks_params_reject(kwargs, field):
    base = dataclasses.asdict(PARAMS)
    # Rebuild with the bad knob; derived tuples are regenerated.
    base.pop("moduli", None)
    base.pop("special_moduli", None)
    base.update(kwargs)
    from repro.fhe.params import CKKSParams

    with pytest.raises(ConfigError) as exc:
        CKKSParams(**base)
    assert exc.value.field == field


def test_simulation_engine_rejects_bad_residency():
    with pytest.raises(ConfigError) as exc:
        SimulationEngine(CROPHE_64, residency_fraction=1.5)
    assert exc.value.field == "residency_fraction"


def test_simulation_engine_rejects_bad_share():
    with pytest.raises(ConfigError) as exc:
        SimulationEngine(CROPHE_64, constant_share=0)
    assert exc.value.field == "constant_share"


def test_min_ntt_tile_must_fill_pe_lanes():
    """A decomposed NTT tile smaller than the vector width is rejected."""
    fat = dataclasses.replace(CROPHE_64, lanes_per_pe=8192)
    with pytest.raises(ConfigError) as exc:
        Scheduler(_graph(), fat, SchedulerConfig(min_ntt_tile=64),
                  n_split=(256, 256))
    assert exc.value.field == "min_ntt_tile"


def test_min_ntt_tile_check_skipped_without_split():
    """Baselines never decompose NTTs, so fat PEs are fine there."""
    fat = dataclasses.replace(CROPHE_64, lanes_per_pe=8192)
    Scheduler(_graph(), fat, SchedulerConfig(min_ntt_tile=64))
