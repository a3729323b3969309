"""The multi-valued gate library: detectors, successors, muxes.

Every kind carries a behavioral table; the generated netlist is verified
against it by exhaustive DC solving. This is the same conformance check the
test suite runs, shown here for a few interesting kinds.
"""

from mvladders.gates import GateKind, behavioral_table, build, input_ports
from mvladders.logic import VoltageMap
from mvladders.solver import solve_dc, solve_dc_batch

# Threshold detectors: binary outputs from multi-valued inputs.
for name in ("NTI", "PTI", "QDetLow", "QDetMid", "QDetHigh"):
    kind = GateKind(name)
    nl = build(kind)
    (port, radix), = input_ports(kind)
    vmap = VoltageMap(0.9, radix)
    outs = []
    for digit in range(radix):
        state = solve_dc(nl, {port: vmap.volts(digit)})
        outs.append(f"{state.voltage('y'):.1f}")
    print(f"{name:9s} ({nl.device_count}T): input 0..{radix - 1} -> {' '.join(outs)} V")

print()

# Cyclic successors: (a + k) mod r, the unary operators behind the sum path.
for name, radix in (("SuccTernary", 3), ("SuccQuaternary", 4)):
    vmap = VoltageMap(0.9, radix)
    for k in range(1, radix):
        nl = build(GateKind(name, k=k))
        digits = []
        for a in range(radix):
            state = solve_dc(nl, {"a": vmap.volts(a)})
            digits.append(vmap.decode(state.voltage("y")))
        print(f"{name}(k={k}) ({nl.device_count}T): {list(range(radix))} -> {digits}")

print()

# A 4:1 mux with quaternary control, checked against its table everywhere:
# all 1,024 input combinations are solved in one batch.
kind = GateKind("Mux4Quaternary")
nl = build(kind)
table = behavioral_table(kind)
vmap = VoltageMap(0.9, 4)
columns = {
    port: [vmap.volts(combo[i]) for combo in table]
    for i, (port, _) in enumerate(input_ports(kind))
}
batch = solve_dc_batch(nl, columns)
outs = batch.values[:, batch.names.index("y")].tolist()
failures = sum(
    bad or vmap.decode(volts) != expected
    for volts, bad, expected in zip(outs, batch.conflict | batch.nonconverged, table.values())
)
print(
    f"Mux4Quaternary ({nl.device_count}T): {len(table)} input combinations, "
    f"{failures} disagreements with the behavioral table"
)
