"""A tiny word-addressed RISC ISA and its assembler.

The ISA is deliberately small but real enough that multi-core firmware
with spinlocks, interrupt handlers and DMA programming can be written in
it (the section-VII workloads are).  16 general registers ``r0``-``r15``
(``r0`` is hardwired to zero, ``r14`` is the link register by convention,
``r15`` the stack pointer); memory is word-addressed.

Instructions
------------
ALU:      ``add sub mul div and or xor shl shr rd, ra, rb``
          ``addi rd, ra, imm`` / ``li rd, imm`` / ``mov rd, ra``
Compare:  ``slt sltu seq rd, ra, rb`` (set rd to 0/1)
Memory:   ``lw rd, imm(ra)`` / ``sw rs, imm(ra)``
          ``swap rd, imm(ra)`` -- atomic exchange (test-and-set substrate)
Control:  ``beq bne blt bge ra, rb, label`` / ``jmp label``
          ``jal label`` (link in r14) / ``jr ra`` / ``ret`` (= jr r14)
Misc:     ``nop`` / ``halt`` / ``ei`` / ``di`` (interrupt enable/disable)
          ``iret`` (return from interrupt)

Directives: ``label:``, ``.word v [v ...]``, ``.org addr``, ``; comment``
or ``# comment``.

Immediate ranges
----------------
The assembler canonicalizes every immediate at assemble time so a
program's meaning never depends on which execution path decodes it:

- *data immediates* (``li``/``addi`` constants, ``lw``/``sw``/``swap``
  offsets, ``.word`` values) wrap to the signed 32-bit two's-complement
  image -- the same image every backend's register file holds;
- *control-flow targets* (numeric ``beq``/``bne``/``blt``/``bge``/
  ``jmp``/``jal`` operands) must already be canonical instruction
  indices in ``[0, 2**31)``; anything else is rejected with
  :class:`AsmError`, since no label can ever resolve there.

The opcode table
----------------
:data:`OPS` describes every opcode once -- operand shape, cycle cost,
expression templates, fault condition, wrap rule (:class:`OpSpec`).
The assembler encodes by its shapes, the ISS decode reads cycle costs
and the batchable/sync split from it (:mod:`repro.vp.iss`), and the
superblock compiler behind the batching tiers generates its code from
it (:mod:`repro.vp.jit`).  The reference path, ``Cpu._execute``, is the
one hand-written copy, kept as the oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

REGISTER_COUNT = 16
LINK_REGISTER = 14
STACK_REGISTER = 15


def to_signed32(value: int) -> int:
    """The signed 32-bit two's-complement image of ``value``: the word
    every register, immediate and data word holds."""
    value &= 0xFFFFFFFF
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def wrap_expr(expr: str) -> str:
    """:func:`to_signed32` as branchless source over an expression."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _div32(a: int, b: int) -> int:
    """Truncating 32-bit division, the table's ``div`` (INT_MIN / -1
    wraps back to INT_MIN); integer-only, so no float rounding."""
    q = abs(a) // abs(b)
    return to_signed32(-q if (a < 0) != (b < 0) else q)


class BlockFault(Exception):
    """A fault raised inside a batch (a compiled superblock).

    Carries the faulting ``pc`` and the exact charge accumulated inside
    the call (``cycles``/``count`` include the faulting instruction,
    matching the reference path, which charges before raising; ``cost``
    is the faulting instruction's own cycle cost, used to split the
    batch delay so the error surfaces at the reference cycle).  The
    ``detail`` text has no core name: decoded programs are shared by
    every core running them, and the core prefixes its name.
    """

    def __init__(self, pc: int, cycles: int, count: int, cost: int,
                 detail: str) -> None:
        super().__init__(detail)
        self.pc = pc
        self.cycles = cycles
        self.count = count
        self.cost = cost
        self.detail = detail


# The globals generated batch code (compiled superblocks) runs under.
TEMPLATE_GLOBALS = {"_div32": _div32, "BlockFault": BlockFault}


# ---------------------------------------------------------------------------
# the opcode table
# ---------------------------------------------------------------------------

# Wrap rules: how an op's result relates to the canonical signed-32 image
# the register file holds (see OpSpec).  Inputs read from the register
# file are always canonical; inside a compiled superblock a local may
# hold any value congruent mod 2**32 to the canonical one.
LAZY = "lazy"                       # congruent; the wrap is deferred
EAGER = "eager"                     # wrapped at once
CANON_IFF_INPUTS = "canonical-iff-inputs"
CANONICAL = "canonical"             # canonical by construction

_OPERANDS = "abin"


@dataclass(frozen=True, eq=False)
class OpSpec:
    """One opcode's semantics: the single description the batching
    tiers are generated from (the superblock emitter in
    :mod:`repro.vp.jit`).
    The reference path, ``Cpu._execute``, is written by hand on purpose:
    it is the oracle the equivalence tests hold the table against.

    ``shape`` names the assembled ``Instr.args`` slots in order: ``d``
    the destination register, ``a``/``b`` source registers, ``i`` an
    immediate, ``t`` a control-flow target; ``link`` names the slot the
    link register fills implicitly (``jal`` writes it, ``ret`` reads it).

    Templates are Python expressions over ``{a}``, ``{b}`` (source
    registers), ``{i}`` (the immediate) and ``{n}`` (the fall-through
    pc): ``expr`` is the value written to ``d``, ``test`` the taken
    condition of a conditional branch, ``next`` the control-transfer
    target, ``fault`` a condition that raises ``fault_text``.

    ``wrap`` says what ``expr`` yields when its inputs are congruent but
    not canonical (see the rules above); ``canon`` lists the operands
    whose signed image the templates read (the needs-canonical-inputs
    rule: signed compares, arithmetic shift, division, jump targets).
    ``raw_expr`` is an equivalent form of ``expr`` for inputs that are
    not canonical, used instead of canonicalizing them first.
    ``sync`` ops touch something outside the register file and always
    run on the reference path.
    """

    shape: str
    cycles: int = 1
    expr: Optional[str] = None
    wrap: str = CANONICAL
    canon: str = ""
    raw_expr: Optional[str] = None
    test: Optional[str] = None
    next: Optional[str] = None
    fault: Optional[str] = None
    fault_text: str = ""
    link: str = ""
    sync: bool = False

    def bind(self, args: Tuple) -> Dict[str, int]:
        """Map an instruction's ``args`` onto operand names."""
        slots = dict(zip(self.shape, args))
        if self.link:
            slots[self.link] = LINK_REGISTER
        if "i" in slots:
            slots["i"] = to_signed32(slots["i"])
        return slots


@functools.lru_cache(maxsize=None)
def template_operands(template: str) -> Tuple[str, ...]:
    """The operand names a template reads, in canonical order (cached:
    code generation asks once per emitted instruction)."""
    return tuple(name for name in _OPERANDS if f"{{{name}}}" in template)


def _alu(expr: str, wrap: str = CANONICAL, canon: str = "",
         cycles: int = 1, **extra) -> OpSpec:
    return OpSpec("dab", cycles, expr, wrap, canon, **extra)


def _branch(test: str) -> OpSpec:
    return OpSpec("abt", test=test, canon="ab", next="{t}")


OPS: Dict[str, OpSpec] = {
    "add": _alu("{a} + {b}", LAZY),
    "sub": _alu("{a} - {b}", LAZY),
    # Products wrap eagerly: deferred mul chains would square bignum
    # widths block-long.
    "mul": _alu("{a} * {b}", EAGER, cycles=3),
    "div": _alu("_div32({a}, {b})", canon="ab", cycles=3,
                fault="{b} == 0", fault_text="division by zero"),
    # Masking commutes with bitwise ops.
    "and": _alu("{a} & {b}", CANON_IFF_INPUTS),
    "or": _alu("{a} | {b}", CANON_IFF_INPUTS),
    "xor": _alu("{a} ^ {b}", CANON_IFF_INPUTS),
    # Shift amounts use the low 5 bits, as on 32-bit RISC hardware.
    "shl": _alu("({a} & 0xFFFFFFFF) << ({b} & 31)", EAGER),
    "shr": _alu("{a} >> ({b} & 31)", canon="a"),
    "slt": _alu("1 if {a} < {b} else 0", canon="ab"),
    "sltu": _alu("1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) else 0"),
    "seq": _alu("1 if {a} == {b} else 0", raw_expr="1 if ({a} & 0xFFFFFFFF) "
                "== ({b} & 0xFFFFFFFF) else 0"),
    "addi": OpSpec("dai", expr="{a} + {i}", wrap=LAZY),
    "li": OpSpec("di", expr="{i}"),
    "mov": OpSpec("da", expr="{a}", wrap=CANON_IFF_INPUTS),
    "nop": OpSpec(""),
    "beq": _branch("{a} == {b}"),
    "bne": _branch("{a} != {b}"),
    "blt": _branch("{a} < {b}"),
    "bge": _branch("{a} >= {b}"),
    "jmp": OpSpec("t", next="{t}"),
    "jal": OpSpec("t", expr="{n}", next="{t}", link="d"),
    "jr": OpSpec("a", canon="a", next="{a}"),
    "ret": OpSpec("", canon="a", next="{a}", link="a"),
    "lw": OpSpec("dia", 2, sync=True),
    "sw": OpSpec("bia", 2, sync=True),
    "swap": OpSpec("dia", 2, sync=True),
    "halt": OpSpec("", sync=True),
    "ei": OpSpec("", sync=True),
    "di": OpSpec("", sync=True),
    "iret": OpSpec("", sync=True),
}

THREE_REG_OPS = {name for name, spec in OPS.items() if spec.shape == "dab"}
BRANCH_OPS = {name for name, spec in OPS.items() if spec.test is not None}
_SYNTAX_NAMES = {"d": "rd", "a": "ra", "b": "rb", "i": "imm",
                 "t": "target", "m": "imm(ra)"}


class AsmError(Exception):
    """Raised on an assembly error, with the offending line."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instr:
    """One decoded instruction."""

    op: str
    args: Tuple[Union[int, str], ...] = ()
    source_line: int = 0

    def __repr__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"<{self.op} {rendered}>"


@dataclass
class AsmProgram:
    """Assembled program: instruction memory plus initialized data words."""

    instructions: List[Instr] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: Dict[int, int] = field(default_factory=dict)  # address -> word
    source: str = ""

    def label(self, name: str) -> int:
        if name not in self.labels:
            raise KeyError(f"unknown label {name!r}")
        return self.labels[name]

    def __len__(self) -> int:
        return len(self.instructions)


def _parse_register(token: str, line_no: int, line: str) -> int:
    token = token.strip().lower()
    if not token.startswith("r"):
        raise AsmError(f"expected register, got {token!r}", line_no, line)
    try:
        index = int(token[1:])
    except ValueError:
        raise AsmError(f"bad register {token!r}", line_no, line) from None
    if not 0 <= index < REGISTER_COUNT:
        raise AsmError(f"register out of range {token!r}", line_no, line)
    return index


def _check_target(value: int, op: str, line_no: int, line: str) -> int:
    """Validate a resolved control-flow target: a canonical instruction
    index.  Out-of-program targets still fault at runtime; what is
    rejected here is an encoding no pc can ever hold."""
    if not 0 <= value < 0x8000_0000:
        raise AsmError(f"{op} target {value} out of range [0, 2**31)",
                       line_no, line)
    return value


def _parse_imm(token: str, line_no: int, line: str) -> Union[int, str]:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        if token and (token[0].isalpha() or token[0] == "_"):
            return token  # label reference, resolved in pass 2
        raise AsmError(f"bad immediate {token!r}", line_no, line) from None


def _parse_mem_operand(token: str, line_no: int,
                       line: str) -> Tuple[Union[int, str], int]:
    """Parse ``imm(ra)`` or ``(ra)`` or bare ``imm``; returns (imm, reg)."""
    token = token.strip()
    if "(" in token:
        if not token.endswith(")"):
            raise AsmError("malformed memory operand", line_no, line)
        imm_part, reg_part = token[:-1].split("(", 1)
        imm = _parse_imm(imm_part, line_no, line) if imm_part.strip() else 0
        reg = _parse_register(reg_part, line_no, line)
        return imm, reg
    return _parse_imm(token, line_no, line), 0


def assemble(source: str) -> AsmProgram:
    """Two-pass assembler: collect labels, then encode instructions."""
    program = AsmProgram(source=source)
    pending: List[Tuple[str, List[str], int, str]] = []
    data_cursor: Optional[int] = None

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                raise AsmError(f"bad label {label!r}", line_no, raw)
            if label in program.labels:
                raise AsmError(f"duplicate label {label!r}", line_no, raw)
            if data_cursor is not None:
                program.labels[label] = data_cursor
            else:
                program.labels[label] = len(pending)
            line = rest.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if op == ".org":
            data_cursor = int(rest.strip(), 0)
            if data_cursor < 0:
                raise AsmError(f".org address {data_cursor} is negative",
                               line_no, raw)
            continue
        if op == ".word":
            if data_cursor is None:
                raise AsmError(".word before .org", line_no, raw)
            for token in rest.replace(",", " ").split():
                program.data[data_cursor] = to_signed32(int(token, 0))
                data_cursor += 1
            continue
        if data_cursor is not None:
            raise AsmError("instructions after .org data section",
                           line_no, raw)
        operands = [t.strip() for t in rest.split(",")] if rest else []
        pending.append((op, operands, line_no, raw))

    for op, operands, line_no, raw in pending:
        program.instructions.append(
            _encode(op, operands, line_no, raw, program))
    return program


def _encode(op: str, operands: List[str], line_no: int, raw: str,
            program: AsmProgram) -> Instr:
    def resolve(value: Union[int, str]) -> int:
        if isinstance(value, str):
            if value not in program.labels:
                raise AsmError(f"undefined label {value!r}", line_no, raw)
            return program.labels[value]
        return value

    spec = OPS.get(op)
    if spec is None:
        raise AsmError(f"unknown mnemonic {op!r}", line_no, raw)
    # An immediate followed by a base register is written ``imm(ra)``.
    syntax = spec.shape.replace("ia", "m")
    if len(operands) != len(syntax):
        names = ", ".join(_SYNTAX_NAMES[slot] for slot in syntax)
        raise AsmError(f"{op} needs {names}" if names
                       else f"{op} takes no operands", line_no, raw)
    args: List[int] = []
    for slot, token in zip(syntax, operands):
        if slot in "dab":
            args.append(_parse_register(token, line_no, raw))
        elif slot == "m":
            imm, base = _parse_mem_operand(token, line_no, raw)
            args += [to_signed32(resolve(imm)), base]
        else:
            value = resolve(_parse_imm(token, line_no, raw))
            args.append(to_signed32(value) if slot == "i"
                        else _check_target(value, op, line_no, raw))
    return Instr(op, tuple(args), line_no)


__all__ = ["AsmError", "AsmProgram", "BRANCH_OPS", "BlockFault",
           "CANONICAL", "CANON_IFF_INPUTS", "EAGER", "Instr", "LAZY",
           "LINK_REGISTER", "OPS", "OpSpec", "REGISTER_COUNT",
           "STACK_REGISTER", "TEMPLATE_GLOBALS", "THREE_REG_OPS",
           "assemble", "template_operands", "to_signed32", "wrap_expr"]
