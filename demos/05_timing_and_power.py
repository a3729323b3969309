"""First-order RC timing and the two central delay mechanisms.

1. Carry restoration: a chain of bare transmission gates is an RC ladder,
   so its delay grows quadratically with length.  Re-driving the signal
   with an inverter after each stage restores linear growth; that inverter
   is exactly what the adders put behind their carry output.

2. Carry swing: a reduced-swing carry starves the restoring inverter of
   gate overdrive (on-resistance is rho / overdrive), which is why the
   full-swing variants propagate carries roughly twice as fast.

All absolute numbers below are calibrated-model values, not measurements.
"""

from mvladders.adders import AdderVariant, CarrySwing, build_full_adder
from mvladders.analysis import TimingModel, bench, path_delay, sweep_load
from mvladders.gates import build_tgate_chain
from mvladders.solver import step_windows

model = TimingModel.default()
print(f"calibration: rho = {model.rho_ohm_v:.0f} ohm*V, "
      f"c_gate = {model.c_gate_f * 1e15:.2f} fF, c_diff = {model.c_diff_f * 1e15:.2f} fF")
print()

print("RC ladder vs restored chain (no external load):")
print(f"{'k':>3} {'bare chain':>12} {'restored':>12}")
for k in (2, 4, 6, 8):
    row = []
    for restored in (False, True):
        nl = build_tgate_chain(k, restored=restored)
        (trace,) = step_windows(nl, [{"a": [0, 1]}])
        row.append(path_delay(trace, model, "a", "y", cl_ff=0.0))
    print(f"{k:>3} {row[0] * 1e12:>10.1f} ps {row[1] * 1e12:>10.1f} ps")
print("the bare chain grows superlinearly; the restored one is a straight line")
print()

print("worst-case critical paths at 2 fF (ps):")
print(f"{'design':24s} {'in->Cout':>9} {'in->Sum':>9} {'Cin->Cout':>10} {'Cin->Sum':>9}")
for variant, swing in (
    (AdderVariant.TFA2, CarrySwing.REDUCED),
    (AdderVariant.TFA2, CarrySwing.FULL),
    (AdderVariant.QFA1, CarrySwing.REDUCED),
    (AdderVariant.QFA2, CarrySwing.FULL),
    (AdderVariant.BFA1_14T, CarrySwing.FULL),
):
    fa = build_full_adder(variant, swing)
    q = bench(fa, model, 2.0).delays
    print(
        f"{fa.label:24s} {q.in_cout * 1e12:>9.1f} {q.in_sum * 1e12:>9.1f} "
        f"{q.cin_cout * 1e12:>10.1f} {q.cin_sum * 1e12:>9.1f}"
    )
print()

print("load sweep of TFA2 (full swing): delays are near-linear in the load,")
print("and the sum output is more load-sensitive than the restored carry:")
sweep = sweep_load(build_full_adder(AdderVariant.TFA2, CarrySwing.FULL), model)
print(f"{'cl fF':>6} {'Cin->Cout ps':>13} {'Cin->Sum ps':>12} {'power uW':>9}")
for row in sweep.rows:
    print(
        f"{row.cl_ff:>6.2f} {row.delays.cin_cout * 1e12:>13.1f} "
        f"{row.delays.cin_sum * 1e12:>12.1f} {row.power_w * 1e6:>9.3f}"
    )
for path in ("cin_cout", "cin_sum"):
    slope, intercept, r2 = sweep.fits[path]
    print(f"fit {path}: slope {slope * 1e12:.2f} ps/fF, R^2 = {r2:.4f}")
