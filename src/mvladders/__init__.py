"""Switch-level construction, simulation and benchmarking of binary,
ternary and quaternary CNTFET full adders and carry-propagate adders."""

from .device import CntfetSpec, Polarity, diameter_nm, threshold_voltage_v
from .logic import (
    CarrySwing,
    VoltageMap,
    digits_to_value,
    full_adder_oracle,
    ni,
    pi,
    succ,
    value_to_digits,
)
from .netlist import (
    Device,
    Instance,
    Net,
    Netlist,
    NetlistBuilder,
    NetlistError,
    NetRole,
    ParseError,
    flatten,
    parse,
    serialize,
    serialize_subckt,
)
from .solver import (
    Conflict,
    DcState,
    NonConvergenceError,
    SolverError,
    StepTrace,
    solve_dc,
    solve_dc_batch,
    step_waveforms,
)
from .gates import GateKind, behavioral_table, build, build_tgate_chain
from .adders import (
    AdderVariant,
    Cpa,
    CpaConfig,
    FullAdder,
    build_cpa,
    build_full_adder,
    verify_design,
)
from .analysis import (
    BenchReport,
    DelayQuad,
    TimingModel,
    area,
    bench,
    dynamic_power,
    path_delay,
    pdp,
    sweep_load,
    worst_case_delays,
)

__version__ = "0.1.0"
