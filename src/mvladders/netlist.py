"""Transistor-level circuit data model and the line-oriented text format.

A netlist owns nets (with supply / input / output / internal roles), CNTFET
devices, an ordered port list, and optionally subcircuit definitions plus
instances of them.  Netlists are immutable after construction; composition
happens through :class:`NetlistBuilder` and :func:`flatten`.

Text format (ASCII, '#' comments, identifiers ``[A-Za-z_][A-Za-z0-9_]*``)::

    SUPPLY <name> <volts>
    INPUT <name> <radix>
    OUTPUT <name> <radix>
    NET <name>
    DEVICE <N|P> n=<chirality> g=<net> s=<net> d=<net>
    SUBCKT <name> <port...>
      ...
    ENDS
    INSTANCE <subckt> <name> <port=net ...>

Supply nets are shared by name: flattening merges an instance's supply with
a same-named supply in the parent and rejects a voltage clash, so rails at
different voltages simply use different names.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, replace

from .device import CntfetSpec, Polarity, diameter_nm
from .logic import SUPPORTED_RADICES

__all__ = [
    "NetRole",
    "Net",
    "Device",
    "Instance",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "ParseError",
    "parse",
    "serialize",
    "serialize_subckt",
    "flatten",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\S+")

_VOLTAGE_EPS = 1e-9


class NetlistError(ValueError):
    """Structural problem in a netlist (bad reference, duplicate, cycle...)."""


class ParseError(NetlistError):
    """Syntax or reference error in netlist text, with source location."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NetRole(enum.Enum):
    SUPPLY = "SUPPLY"
    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    INTERNAL = "NET"


@dataclass(frozen=True)
class Net:
    """A named node.  Supplies carry a fixed voltage, I/O nets a radix."""

    name: str
    role: NetRole = NetRole.INTERNAL
    voltage: float | None = None
    radix: int | None = None

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise NetlistError(f"invalid net identifier {self.name!r}")
        if self.role is NetRole.SUPPLY:
            if self.voltage is None or not math.isfinite(self.voltage):
                raise NetlistError(f"supply net {self.name!r} needs a finite voltage")
        elif self.voltage is not None:
            raise NetlistError(f"net {self.name!r}: only supplies carry a voltage")
        if self.role in (NetRole.INPUT, NetRole.OUTPUT):
            if self.radix not in SUPPORTED_RADICES:
                raise NetlistError(
                    f"net {self.name!r}: I/O nets need a radix in {SUPPORTED_RADICES}"
                )
        elif self.radix is not None:
            raise NetlistError(f"net {self.name!r}: only I/O nets carry a radix")


@dataclass(frozen=True)
class Device:
    """One CNTFET.  Source/drain are stored asymmetrically but the channel
    is electrically symmetric; the solver treats them interchangeably."""

    spec: CntfetSpec
    gate: str
    source: str
    drain: str

    def terminals(self) -> tuple[str, str, str]:
        return (self.gate, self.source, self.drain)


@dataclass(frozen=True)
class Instance:
    """A subcircuit instantiation: port -> parent-net bindings."""

    subckt: str
    name: str
    bindings: tuple[tuple[str, str], ...]

    @property
    def binding_map(self) -> dict[str, str]:
        return dict(self.bindings)


@dataclass(frozen=True)
class Netlist:
    name: str
    nets: dict[str, Net]
    devices: tuple[Device, ...]
    ports: tuple[str, ...]
    instances: tuple[Instance, ...] = ()
    subckts: dict[str, "Netlist"] = field(default_factory=dict)

    @property
    def is_flat(self) -> bool:
        return not self.instances

    @property
    def device_count(self) -> int:
        return len(self.devices)

    def nets_with_role(self, role: NetRole) -> tuple[Net, ...]:
        return tuple(n for n in self.nets.values() if n.role is role)

    @property
    def supplies(self) -> tuple[Net, ...]:
        return self.nets_with_role(NetRole.SUPPLY)

    @property
    def inputs(self) -> tuple[Net, ...]:
        return self.nets_with_role(NetRole.INPUT)

    @property
    def outputs(self) -> tuple[Net, ...]:
        return self.nets_with_role(NetRole.OUTPUT)

    def max_supply_v(self) -> float:
        return max(n.voltage for n in self.supplies)

    def sum_diameter_nm(self) -> float:
        """Total transistor diameter of the devices held directly (not instances)."""
        return sum(diameter_nm(d.spec.chirality_n) for d in self.devices)


def _device_key(d: Device) -> tuple:
    return (d.spec.polarity.value, d.spec.chirality_n, d.gate, d.source, d.drain)


class NetlistBuilder:
    """Mutable assembler for netlists; validates on build()."""

    def __init__(self) -> None:
        self._nets: dict[str, Net] = {}
        self._devices: list[Device] = []
        self._port_order: list[str] = []
        self._instances: list[Instance] = []
        self._subckts: dict[str, Netlist] = {}

    # -- nets ---------------------------------------------------------------

    def _add_net(self, net: Net) -> str:
        if net.name in self._nets:
            raise NetlistError(f"duplicate net name {net.name!r}")
        self._nets[net.name] = net
        return net.name

    def add_supply(self, name: str, voltage: float) -> str:
        existing = self._nets.get(name)
        if existing is not None:
            if existing.role is NetRole.SUPPLY and abs(existing.voltage - voltage) <= _VOLTAGE_EPS:
                return name
            raise NetlistError(f"supply {name!r} redeclared with a different voltage")
        return self._add_net(Net(name, NetRole.SUPPLY, voltage=voltage))

    def add_input(self, name: str, radix: int) -> str:
        self._add_net(Net(name, NetRole.INPUT, radix=radix))
        self._port_order.append(name)
        return name

    def add_output(self, name: str, radix: int) -> str:
        self._add_net(Net(name, NetRole.OUTPUT, radix=radix))
        self._port_order.append(name)
        return name

    def add_internal(self, name: str) -> str:
        return self._add_net(Net(name, NetRole.INTERNAL))

    def fresh(self, stem: str) -> str:
        """Internal net with a name derived from stem, unique in this builder."""
        name = stem
        k = 1
        while name in self._nets:
            k += 1
            name = f"{stem}{k}"
        return self.add_internal(name)

    def has_net(self, name: str) -> bool:
        return name in self._nets

    # -- devices / hierarchy --------------------------------------------------

    def add_device(self, polarity: Polarity, chirality_n: int, gate: str, source: str, drain: str) -> None:
        for term in (gate, source, drain):
            if term not in self._nets:
                raise NetlistError(f"device terminal references undefined net {term!r}")
        self._devices.append(Device(CntfetSpec(polarity, chirality_n), gate, source, drain))

    def add_subckt(self, definition: Netlist) -> None:
        if definition.name in self._subckts:
            raise NetlistError(f"duplicate subcircuit {definition.name!r}")
        self._subckts[definition.name] = definition

    def add_instance(self, subckt: str, name: str, bindings: dict[str, str]) -> None:
        if not _IDENT_RE.match(name):
            raise NetlistError(f"invalid instance identifier {name!r}")
        if any(i.name == name for i in self._instances):
            raise NetlistError(f"duplicate instance name {name!r}")
        for port, net in bindings.items():
            if net not in self._nets:
                raise NetlistError(f"instance {name!r} binds port {port!r} to undefined net {net!r}")
        self._instances.append(Instance(subckt, name, tuple(sorted(bindings.items()))))

    def build(self, name: str, ports: list[str] | None = None) -> Netlist:
        if not _IDENT_RE.match(name):
            raise NetlistError(f"invalid netlist identifier {name!r}")
        port_list = tuple(ports if ports is not None else self._port_order)
        nl = Netlist(
            name=name,
            nets=dict(self._nets),
            devices=tuple(self._devices),
            ports=port_list,
            instances=tuple(self._instances),
            subckts=dict(self._subckts),
        )
        _validate(nl)
        return nl


def _validate(nl: Netlist) -> None:
    if not any(n.role is NetRole.SUPPLY for n in nl.nets.values()):
        raise NetlistError(f"netlist {nl.name!r} has no supply net")
    for port in nl.ports:
        if port not in nl.nets:
            raise NetlistError(f"port {port!r} is not a declared net")
        if nl.nets[port].role not in (NetRole.INPUT, NetRole.OUTPUT):
            raise NetlistError(f"port {port!r} must be an INPUT or OUTPUT net")
    io_names = {n.name for n in nl.nets.values() if n.role in (NetRole.INPUT, NetRole.OUTPUT)}
    if io_names - set(nl.ports):
        raise NetlistError(f"I/O nets missing from port list: {sorted(io_names - set(nl.ports))}")
    for dev in nl.devices:
        for term in dev.terminals():
            if term not in nl.nets:
                raise NetlistError(f"device terminal references undefined net {term!r}")
    for inst in nl.instances:
        sub = nl.subckts.get(inst.subckt)
        if sub is None:
            # subcircuit bodies resolve names against the enclosing scope;
            # flatten reports genuinely unknown names and cycles
            continue
        bound = inst.binding_map
        missing = [p for p in sub.ports if p not in bound]
        if missing:
            raise NetlistError(f"instance {inst.name!r} leaves ports unbound: {missing}")
        unknown = [p for p in bound if p not in sub.ports]
        if unknown:
            raise NetlistError(f"instance {inst.name!r} binds unknown ports: {unknown}")
        for net in bound.values():
            if net not in nl.nets:
                raise NetlistError(f"instance {inst.name!r} binds to undefined net {net!r}")


# --------------------------------------------------------------------------
# parsing


def _tokens(line: str, lineno: int) -> list[tuple[str, int]]:
    body = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(body)]


def _ident(tok: str, col: int, lineno: int, what: str) -> str:
    if not _IDENT_RE.match(tok):
        raise ParseError(f"invalid {what} identifier {tok!r}", lineno, col)
    return tok


def _number(tok: str, col: int, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"malformed {what} {tok!r}", lineno, col) from None


def _intval(tok: str, col: int, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"malformed {what} {tok!r}", lineno, col) from None


class _BlockParser:
    """Parses one directive scope (the top level or one SUBCKT body)."""

    def __init__(self, name: str, top: "_BlockParser | None" = None) -> None:
        self.builder = NetlistBuilder()
        self.name = name
        self.top = top
        self.declared_subckts: set[str] = set()

    def directive(self, toks: list[tuple[str, int]], lineno: int) -> None:
        word, col = toks[0]
        args = toks[1:]
        try:
            if word == "SUPPLY":
                self._need(args, 2, lineno, col, word)
                self.builder.add_supply(
                    _ident(args[0][0], args[0][1], lineno, "net"),
                    _number(args[1][0], args[1][1], lineno, "voltage"),
                )
            elif word in ("INPUT", "OUTPUT"):
                self._need(args, 2, lineno, col, word)
                name = _ident(args[0][0], args[0][1], lineno, "net")
                radix = _intval(args[1][0], args[1][1], lineno, "radix")
                if word == "INPUT":
                    self.builder.add_input(name, radix)
                else:
                    self.builder.add_output(name, radix)
            elif word == "NET":
                self._need(args, 1, lineno, col, word)
                self.builder.add_internal(_ident(args[0][0], args[0][1], lineno, "net"))
            elif word == "DEVICE":
                self._device(args, lineno, col)
            elif word == "INSTANCE":
                self._instance(args, lineno, col)
            else:
                raise ParseError(f"unknown directive {word!r}", lineno, col)
        except ParseError:
            raise
        except NetlistError as exc:
            raise ParseError(str(exc), lineno, col) from None

    @staticmethod
    def _need(args: list, n: int, lineno: int, col: int, word: str) -> None:
        if len(args) != n:
            raise ParseError(f"{word} expects {n} arguments, got {len(args)}", lineno, col)

    def _device(self, args: list[tuple[str, int]], lineno: int, col: int) -> None:
        if len(args) != 5:
            raise ParseError("DEVICE expects <N|P> n= g= s= d=", lineno, col)
        pol_tok, pol_col = args[0]
        if pol_tok not in ("N", "P"):
            raise ParseError(f"device polarity must be N or P, got {pol_tok!r}", lineno, pol_col)
        fields: dict[str, tuple[str, int]] = {}
        for tok, tcol in args[1:]:
            if "=" not in tok:
                raise ParseError(f"expected key=value, got {tok!r}", lineno, tcol)
            key, val = tok.split("=", 1)
            if key not in ("n", "g", "s", "d") or key in fields:
                raise ParseError(f"unexpected device field {tok!r}", lineno, tcol)
            fields[key] = (val, tcol + len(key) + 1)
        if set(fields) != {"n", "g", "s", "d"}:
            raise ParseError("DEVICE needs fields n=, g=, s=, d=", lineno, col)
        n = _intval(*fields["n"], lineno, "chirality")
        if n < 1:
            raise ParseError(f"chirality must be >= 1, got {n}", lineno, fields["n"][1])
        nets = {}
        for key in ("g", "s", "d"):
            tok, tcol = fields[key]
            name = _ident(tok, tcol, lineno, "net")
            if not self.builder.has_net(name):
                raise ParseError(f"undefined net {name!r}", lineno, tcol)
            nets[key] = name
        self.builder.add_device(Polarity(pol_tok), n, nets["g"], nets["s"], nets["d"])

    def _instance(self, args: list[tuple[str, int]], lineno: int, col: int) -> None:
        if len(args) < 2:
            raise ParseError("INSTANCE expects <subckt> <name> <port=net ...>", lineno, col)
        sub_tok, sub_col = args[0]
        inst_tok, inst_col = args[1]
        sub = _ident(sub_tok, sub_col, lineno, "subcircuit")
        inst = _ident(inst_tok, inst_col, lineno, "instance")
        scope = self.top if self.top is not None else self
        definition = scope.builder._subckts.get(sub)
        if definition is None and sub not in scope.declared_subckts:
            raise ParseError(f"unknown subcircuit {sub!r}", lineno, sub_col)
        bindings: dict[str, str] = {}
        for tok, tcol in args[2:]:
            if "=" not in tok:
                raise ParseError(f"expected port=net, got {tok!r}", lineno, tcol)
            port, net = tok.split("=", 1)
            if port in bindings:
                raise ParseError(f"duplicate binding for port {port!r}", lineno, tcol)
            net = _ident(net, tcol + len(port) + 1, lineno, "net")
            if not self.builder.has_net(net):
                raise ParseError(f"undefined net {net!r}", lineno, tcol + len(port) + 1)
            bindings[port] = net
        if definition is not None:
            # in-progress definitions (self or forward references) are checked
            # again at flatten time, where cycles are reported
            missing = [p for p in definition.ports if p not in bindings]
            if missing:
                raise ParseError(f"instance {inst!r} leaves ports unbound: {missing}", lineno, col)
            unknown = [p for p in bindings if p not in definition.ports]
            if unknown:
                raise ParseError(f"instance {inst!r} binds unknown ports: {unknown}", lineno, col)
        self.builder.add_instance(sub, inst, bindings)


def parse(text: str) -> Netlist:
    """Parse netlist text; raises :class:`ParseError` with location on failure."""
    top = _BlockParser("netlist")
    current: _BlockParser = top
    current_ports: list[tuple[str, int]] | None = None
    subckt_line = 0
    name = "netlist"
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno == 1:
            m = re.match(r"\s*#\s*netlist:\s*([A-Za-z_][A-Za-z0-9_]*)\s*$", line)
            if m:
                name = m.group(1)
        toks = _tokens(line, lineno)
        if not toks:
            continue
        word, col = toks[0]
        if word == "SUBCKT":
            if current is not top:
                raise ParseError("nested SUBCKT definitions are not supported", lineno, col)
            if len(toks) < 2:
                raise ParseError("SUBCKT expects a name and port list", lineno, col)
            sub_name = _ident(toks[1][0], toks[1][1], lineno, "subcircuit")
            if sub_name in top.builder._subckts or sub_name in top.declared_subckts:
                raise ParseError(f"duplicate subcircuit {sub_name!r}", lineno, toks[1][1])
            top.declared_subckts.add(sub_name)
            current = _BlockParser(sub_name, top=top)
            current_ports = [(t, c) for t, c in toks[2:]]
            subckt_line = lineno
        elif word == "ENDS":
            if current is top:
                raise ParseError("ENDS outside of SUBCKT", lineno, col)
            ports = []
            for tok, tcol in current_ports or []:
                pname = _ident(tok, tcol, subckt_line, "port")
                ports.append(pname)
            try:
                definition = current.builder.build(current.name, ports=ports)
            except NetlistError as exc:
                raise ParseError(str(exc), subckt_line, 1) from None
            top.builder.add_subckt(definition)
            current = top
            current_ports = None
        else:
            current.directive(toks, lineno)
    if current is not top:
        raise ParseError(f"SUBCKT {current.name!r} missing ENDS", subckt_line, 1)
    try:
        return top.builder.build(name)
    except NetlistError as exc:
        raise ParseError(str(exc), 1, 1) from None


# --------------------------------------------------------------------------
# serialization


def _fmt_voltage(v: float) -> str:
    """Six significant digits when they hold the value, else every digit."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def _body_lines(nl: Netlist) -> list[str]:
    lines: list[str] = []
    for net in sorted(nl.supplies, key=lambda n: n.name):
        lines.append(f"SUPPLY {net.name} {_fmt_voltage(net.voltage)}")
    for port in nl.ports:
        net = nl.nets[port]
        if net.role is NetRole.INPUT:
            lines.append(f"INPUT {net.name} {net.radix}")
    for port in nl.ports:
        net = nl.nets[port]
        if net.role is NetRole.OUTPUT:
            lines.append(f"OUTPUT {net.name} {net.radix}")
    internals = sorted(n.name for n in nl.nets.values() if n.role is NetRole.INTERNAL)
    for name in internals:
        lines.append(f"NET {name}")
    for dev in sorted(nl.devices, key=_device_key):
        lines.append(
            f"DEVICE {dev.spec.polarity.value} n={dev.spec.chirality_n}"
            f" g={dev.gate} s={dev.source} d={dev.drain}"
        )
    for inst in sorted(nl.instances, key=lambda i: i.name):
        sub = nl.subckts[inst.subckt]
        bound = inst.binding_map
        pairs = " ".join(f"{p}={bound[p]}" for p in sub.ports)
        lines.append(f"INSTANCE {inst.subckt} {inst.name} {pairs}")
    return lines


def serialize(nl: Netlist) -> str:
    """Canonical text form: byte-stable, nets before devices, sorted within kind."""
    lines = [f"# netlist: {nl.name}"]
    for sub_name in sorted(nl.subckts):
        lines.extend(serialize_subckt(nl.subckts[sub_name]).splitlines())
    lines.extend(_body_lines(nl))
    return "\n".join(lines) + "\n"


def serialize_subckt(nl: Netlist) -> str:
    """The netlist as a SUBCKT block (its ports become the header list)."""
    lines = [f"SUBCKT {nl.name} {' '.join(nl.ports)}".rstrip()]
    lines.extend(_body_lines(nl))
    lines.append("ENDS")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# flattening


def flatten(nl: Netlist) -> Netlist:
    """Expand all instances into devices.

    Instance-internal nets are renamed ``<instance>_<net>``; supply nets keep
    their names and merge with the parent's.  Raises on cyclic instantiation.
    """
    builder = NetlistBuilder()
    for net in nl.nets.values():
        if net.role is NetRole.SUPPLY:
            builder.add_supply(net.name, net.voltage)
        elif net.role is NetRole.INPUT:
            builder.add_input(net.name, net.radix)
        elif net.role is NetRole.OUTPUT:
            builder.add_output(net.name, net.radix)
        else:
            builder.add_internal(net.name)
    for dev in nl.devices:
        builder.add_device(dev.spec.polarity, dev.spec.chirality_n, dev.gate, dev.source, dev.drain)
    for inst in nl.instances:
        _flatten_into(builder, nl.subckts, inst, {}, ())
    return builder.build(nl.name, ports=list(nl.ports))


def _flatten_into(
    builder: NetlistBuilder,
    defs: dict[str, Netlist],
    inst: Instance,
    outer_map: dict[str, str],
    stack: tuple[str, ...],
) -> None:
    if inst.subckt in stack:
        chain = " -> ".join(stack + (inst.subckt,))
        raise NetlistError(f"cyclic instantiation: {chain}")
    sub = defs.get(inst.subckt)
    if sub is None:
        raise NetlistError(f"instance {inst.name!r} references unknown subcircuit {inst.subckt!r}")
    missing = [p for p in sub.ports if p not in inst.binding_map]
    if missing:
        raise NetlistError(f"instance {inst.name!r} leaves ports unbound: {missing}")
    bound = {port: outer_map.get(net, net) for port, net in inst.binding_map.items()}
    mapping: dict[str, str] = {}
    for net in sub.nets.values():
        if net.role is NetRole.SUPPLY:
            mapping[net.name] = builder.add_supply(net.name, net.voltage)
        elif net.name in bound:
            mapping[net.name] = bound[net.name]
        else:
            mapping[net.name] = builder.fresh(f"{inst.name}_{net.name}")
    for dev in sub.devices:
        builder.add_device(
            dev.spec.polarity,
            dev.spec.chirality_n,
            mapping[dev.gate],
            mapping[dev.source],
            mapping[dev.drain],
        )
    for nested in sub.instances:
        prefixed = replace(nested, name=f"{inst.name}_{nested.name}")
        _flatten_into(builder, defs, prefixed, mapping, stack + (inst.subckt,))
