"""Superblock-compiled ISS backend (``SoCConfig.backend = "compiled"``,
the default).

The temporally-decoupled fast path (repro.vp.iss) batches local
instructions into one kernel event; this module retires the batch
without any per-instruction dispatch: each *superblock* -- a maximal run
of batchable instructions from an entry pc up to and including the first
control transfer (or up to the first synchronization boundary) -- is
compiled once into a single generated-Python function that keeps live
registers in Python locals and re-enters the register file only at
block exits.  One function call then retires a whole block; a
self-looping block (a conditional branch back to its own leader, the
hot-loop shape) is compiled to an internal ``while`` that retires *many
iterations* per call, bounded by the caller's remaining quantum budget.

Every instruction's code is generated from the opcode table,
:data:`repro.vp.isa.OPS`: :meth:`_Emitter.emit` substitutes locals into
the op's expression template and applies its wrap rule, and the block
terminator comes from the op's ``test``/``next`` templates.  No opcode
is spelled out here.

Correctness contract (the hand-written reference path is the oracle):

- **Sync boundaries are never compiled.**  Blocks only ever contain
  non-``sync`` table ops (register-file-only work); bus ops, mode
  changes and every other observable interaction stay on the reference
  path, so all the sync-boundary rules in :mod:`repro.vp.iss` are
  preserved unchanged.
- **32-bit wrap semantics are exact.**  Generated code tracks, per
  local, whether the value is already the canonical signed-32 image and
  inserts the branchless wrap ``((x + 2**31) & 0xFFFFFFFF) - 2**31``
  by each op's wrap rule: lazy results (additive chains) defer it, since
  sum masking commutes with mod 2**32, while every wrap-sensitive use
  (the table's needs-canonical-inputs operands, backedges, block exits
  and faulting points) sees the canonical image.
- **Faults surface at the reference cycle.**  A ``div`` by zero writes
  back all architectural state retired before the faulting instruction,
  then raises :class:`BlockFault` carrying the exact cycle/instruction
  charge so the core can align the kernel delay before surfacing it.
- **Quantum rounds up to block granularity.**  A batch ends at the
  first block exit at or past the budget -- legal because blocks contain
  no observable interaction, so every wakeup still lands on a cycle
  where the reference path also scheduled one, and tied-time ordering
  is pinned architecturally by per-core kernel priority.

Compiled blocks are cached on the decoded program (the existing decode
cache) via :class:`SuperBlockCache`, lazily per entry pc -- jump targets
that are never reached are never compiled.  The cache is salted with
:data:`JIT_SALT`, a digest of this module's and :mod:`repro.vp.isa`'s
source (the same idiom as the farm's code-version salt,
:func:`repro.farm.source_salt`): editing the compiler or the opcode
table self-invalidates every previously built cache, so a stale block
can never outlive the code that generated it.

Below those caches, compilation itself is memoized process-wide by
block *content* (:func:`_compile_run`, :func:`_compile_lane_run`): the
key is the entry pc plus the block's run of ``(OpSpec, args)`` pairs,
so the many programs a run assembles from the same source -- and the
common blocks of distinct generated programs -- share one compiled
function.  :class:`~repro.vp.isa.OpSpec` hashes by identity, so a block
built from a since-replaced table entry can never be reused for the new
entry.  Each memo is an LRU bounded by :data:`MEMO_BLOCKS`.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.vp.isa import (BlockFault, CANON_IFF_INPUTS, EAGER, Instr, LAZY,
                          OPS, OpSpec, TEMPLATE_GLOBALS, template_operands,
                          wrap_expr)

# Cap on instructions fused into one block: bounds generated-function
# size and the quantum overshoot of a batch that ends mid-block.
MAX_BLOCK_INSTRS = 64

# Bound of each process-wide compiled-block memo (scalar and lane form,
# see _compile_run).  One mpsocbench platform round compiles 139
# distinct blocks, so 128 would thrash it.  Over 300 in-process fuzz
# jobs the bound keeps nearly all of the unbounded memo's hits while
# holding the process's RSS growth to about half (+3.4 MB vs +7.9 MB):
# daemon farm workers see new programs every job.
MEMO_BLOCKS = 256

# A block's content, the memo key: its (table entry, operands) run.
BlockRun = Tuple[Tuple[OpSpec, Tuple], ...]

# Modules whose source decides what a generated block computes: the
# opcode table and this compiler.
_SALTED_MODULES = ("repro.vp.isa", __name__)


def _compute_salt() -> str:
    """Digest of the table's and the compiler's source: the
    compiled-code version salt."""
    try:
        import inspect
        import sys
        source = "".join(inspect.getsource(sys.modules[name])
                         for name in _SALTED_MODULES)
    except (OSError, TypeError, KeyError):
        return "jit-unversioned"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


JIT_SALT = _compute_salt()


class SuperBlock:
    """One compiled superblock.

    Static blocks: ``fn(regs) -> next_pc`` with fixed ``cycles`` and
    ``count`` per call.  Dynamic (self-loop) blocks: ``fn(regs, budget)
    -> (next_pc, cycles, count)`` retiring whole iterations until the
    cycle budget is spent.
    """

    __slots__ = ("fn", "cycles", "count", "last_cost", "start", "end",
                 "dynamic", "source")

    def __init__(self, fn: Callable, cycles: int, count: int,
                 last_cost: int, start: int, end: int, dynamic: bool,
                 source: str) -> None:
        self.fn = fn
        self.cycles = cycles      # cycles per completed straight pass
        self.count = count        # instructions per completed pass
        self.last_cost = last_cost  # final instruction's cycle cost
        self.start = start
        self.end = end            # pc one past the last fused instruction
        self.dynamic = dynamic
        self.source = source      # generated Python (tests, debugging)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "loop" if self.dynamic else "block"
        return (f"<SuperBlock {kind} pc={self.start}..{self.end - 1} "
                f"n={self.count} cycles={self.cycles}>")


class _Emitter:
    """Shared per-instruction code emission with canonical-form tracking.

    ``canon[r]`` records whether local ``r{r}`` currently holds the
    canonical signed-32 image; locals loaded from the register file are
    canonical by the register-file invariant (see repro.vp.isa.OpSpec).
    """

    def __init__(self, loads: Sequence[int]) -> None:
        self.body: List[str] = []
        self.local: Set[int] = set(loads)
        self.canon = {r: True for r in loads}
        self.dirty: Set[int] = set()

    def ref(self, r: int) -> str:
        if r == 0:
            return "0"
        if r not in self.local:
            # Read of a register never loaded nor written: only possible
            # for straight-line emission (loop bodies hoist all loads).
            self.body.append(f"r{r} = regs[{r}]")
            self.local.add(r)
            self.canon[r] = True
        return f"r{r}"

    def ref_c(self, r: int) -> str:
        name = self.ref(r)
        if r != 0 and not self.canon[r]:
            self.body.append(f"r{r} = {wrap_expr(f'r{r}')}")
            self.canon[r] = True
        return name

    def is_canon(self, r: int) -> bool:
        return r == 0 or self.canon.get(r, True)

    def write(self, r: int, expr: str, is_canon: bool) -> None:
        self.body.append(f"r{r} = {expr}")
        self.local.add(r)
        self.canon[r] = is_canon
        self.dirty.add(r)

    def canonicalize_dirty(self) -> None:
        """Force every dirty local into canonical form (backedges)."""
        for r in sorted(self.dirty):
            if not self.canon[r]:
                self.body.append(f"r{r} = {wrap_expr(f'r{r}')}")
                self.canon[r] = True

    def writeback(self) -> List[str]:
        out = []
        for r in sorted(self.dirty):
            if self.canon[r]:
                out.append(f"regs[{r}] = r{r}")
            else:
                out.append(f"regs[{r}] = {wrap_expr(f'r{r}')}")
        return out

    def fault_writeback_here(self) -> str:
        """Writeback source for a fault at the current emission point:
        every dirty-so-far local, wrapped unconditionally (wrapping a
        canonical value is the identity; faults are the rare path)."""
        return "; ".join(
            f"regs[{r}] = {wrap_expr(f'r{r}')}"
            for r in sorted(self.dirty)) or "pass"

    def render(self, template: str, spec: OpSpec, slots: Dict[str, int],
               pc: int) -> str:
        """Substitute a table template's operands: registers as locals
        (canonicalized first when ``spec.canon`` names them), the
        immediate and the fall-through pc as literals."""
        values = {}
        for name in template_operands(template):
            if name == "n":
                values[name] = repr(pc + 1)
            elif name == "i":
                values[name] = repr(slots[name])
            elif name in spec.canon:
                values[name] = self.ref_c(slots[name])
            else:
                values[name] = self.ref(slots[name])
        return template.format(**values, t=slots.get("t"))

    def assign(self, spec: OpSpec, slots: Dict[str, int], pc: int) -> None:
        """Write ``spec.expr`` to the destination local, tracking its
        canonical form by the op's wrap rule."""
        inputs = [slots[name] for name in template_operands(spec.expr)
                  if name in "ab"]
        canon_inputs = all(self.is_canon(r) for r in inputs)
        template = spec.expr
        if spec.raw_expr is not None and not canon_inputs:
            template = spec.raw_expr
        expr = self.render(template, spec, slots, pc)
        if spec.wrap == EAGER:
            expr = wrap_expr(expr)
        if spec.wrap == LAZY:
            is_canon = False
        elif spec.wrap == CANON_IFF_INPUTS:
            is_canon = canon_inputs
        else:
            is_canon = True
        self.write(slots["d"], expr, is_canon)

    def emit(self, spec: OpSpec, slots: Dict[str, int], pc: int,
             fault_charge: str, fault_writeback: Optional[str]) -> None:
        """Emit one non-control batchable instruction.

        ``fault_charge`` is a source fragment: the (cycles, count)
        expressions charged if this instruction faults -- static numbers
        for straight-line blocks, ``_t + k, _n + k`` inside loop bodies.
        ``fault_writeback`` is the architectural-state writeback to run
        before raising: ``None`` for straight-line blocks (the dirty-so-
        far locals, built only for an op that can fault), a placeholder
        patched to the loop's full dirty set for dynamic blocks (whose
        preamble loads every register the body touches, so every
        writeback target is bound from iteration one).  A write to
        ``r0`` is dropped, but its fault check is not: a ``div`` by zero
        into ``r0`` faults like the reference path.
        """
        if spec.fault is not None:
            if fault_writeback is None:
                fault_writeback = self.fault_writeback_here()
            self.body.append(
                f"if {self.render(spec.fault, spec, slots, pc)}:")
            self.body.append(f"    {fault_writeback}")
            self.body.append(
                f"    raise BlockFault({pc}, {fault_charge}, "
                f"{spec.cycles}, '{spec.fault_text} at pc={pc}')")
        if slots.get("d") and spec.expr is not None:
            self.assign(spec, slots, pc)


def _block_run(instrs: Sequence[Instr], batchable: Sequence[bool],
               start: int) -> BlockRun:
    """The content of the superblock whose leader is ``start``: each
    fused instruction's table entry and operands.  A run is empty when
    ``start`` is a synchronization boundary."""
    run = []
    pc = start
    n = len(instrs)
    while 0 <= pc < n and len(run) < MAX_BLOCK_INSTRS and batchable[pc]:
        instr = instrs[pc]
        spec = OPS[instr.op]
        run.append((spec, instr.args))
        pc += 1
        if spec.next is not None:
            break
    return tuple(run)


def compile_superblock(instrs: Sequence[Instr], batchable: Sequence[bool],
                       start: int) -> Optional[SuperBlock]:
    """Compile (or fetch from the memo) the superblock whose leader is
    ``start``.

    Returns ``None`` when ``start`` is a synchronization boundary (the
    caller must take the reference path for that instruction).
    """
    run = _block_run(instrs, batchable, start)
    return _compile_run(start, run) if run else None


@functools.lru_cache(maxsize=MEMO_BLOCKS)
def _compile_run(start: int, content: BlockRun) -> SuperBlock:
    """Generate the scalar superblock for one block content."""
    # ------------------------------------------------------------------
    # Pass 1: bind each instruction's operands and classify.
    run: List[Tuple[OpSpec, Dict[str, int]]] = [
        (spec, spec.bind(args)) for spec, args in content]
    end = start + len(run)
    # The control transfer ending the block, if any.
    term_spec, term_slots = run.pop() if run[-1][0].next else (None, {})

    # A conditional branch back to the leader closes a hot loop: compile
    # it as a budget-bounded internal while (a *loop superblock*).
    dynamic = (term_spec is not None and term_spec.test is not None
               and term_slots["t"] == start)

    # Registers read before written need a hoisted load.  Dynamic blocks
    # additionally preload every register the body *writes*: a fault in
    # the first iteration writes back the full dirty set, whose members
    # must already be bound (to their unchanged architectural values).
    written: Set[int] = set()
    loads: Set[int] = set()
    for _spec, slots in run + [(term_spec, term_slots)]:
        loads |= {slots[name] for name in "ab"
                  if slots.get(name) and slots[name] not in written}
        if slots.get("d"):
            written.add(slots["d"])
    if dynamic:
        loads |= written

    emitter = _Emitter(sorted(loads))
    preamble = [f"r{r} = regs[{r}]" for r in sorted(loads)]

    cycles_total = 0
    count = 0
    last_cost = 0
    body_pc = start
    fault_writeback = "__FAULT_WRITEBACK__" if dynamic else None
    for spec, slots in run:
        cost = spec.cycles
        if dynamic:
            fault_charge = (f"_t + {cycles_total + cost}, "
                            f"_n + {count + 1}")
        else:
            fault_charge = f"{cycles_total + cost}, {count + 1}"
        emitter.emit(spec, slots, body_pc, fault_charge, fault_writeback)
        cycles_total += cost
        count += 1
        last_cost = cost
        body_pc += 1

    body = emitter.body

    if term_spec is not None:
        cost = term_spec.cycles
        cycles_total += cost
        count += 1
        last_cost = cost
        if term_spec.expr is not None:   # jal's link write
            emitter.assign(term_spec, term_slots, body_pc)
        if dynamic:
            test = emitter.render(term_spec.test, term_spec, term_slots,
                                  body_pc)
            # Backedge: every local must re-enter the loop canonical,
            # because the next iteration was compiled under the same
            # all-canonical entry assumption the first one was.
            emitter.canonicalize_dirty()
            body.append(f"_t += {cycles_total}")
            body.append(f"_n += {count}")
            body.append(f"if not ({test}):")
            for line in emitter.writeback():
                body.append(f"    {line}")
            body.append(f"    return {body_pc + 1}, _t, _n")
            body.append(f"if _t >= budget:")
            for line in emitter.writeback():
                body.append(f"    {line}")
            body.append(f"    return {start}, _t, _n")
        elif term_spec.test is not None:
            test = emitter.render(term_spec.test, term_spec, term_slots,
                                  body_pc)
            body.extend(emitter.writeback())
            body.append(f"if {test}:")
            body.append(f"    return {term_slots['t']}")
            body.append(f"return {body_pc + 1}")
        else:
            target = emitter.render(term_spec.next, term_spec, term_slots,
                                    body_pc)
            body.extend(emitter.writeback())
            body.append(f"return {target}")
    else:
        body.extend(emitter.writeback())
        body.append(f"return {end}")

    if dynamic:
        lines = [f"def _sb(regs, budget):"]
        lines += [f"    {line}" for line in preamble]
        lines += ["    _t = 0", "    _n = 0", "    while True:"]
        lines += [f"        {line}" for line in body]
    else:
        lines = [f"def _sb(regs):"]
        lines += [f"    {line}" for line in preamble]
        lines += [f"    {line}" for line in body]
    source = "\n".join(lines) + "\n"
    if dynamic:
        # Loop fault sites write back *all* dirty locals: locals written
        # textually "later" were retired by the previous iteration (or
        # preloaded unchanged) and must land in the file too.
        source = source.replace("__FAULT_WRITEBACK__",
                                emitter.fault_writeback_here())

    namespace = dict(TEMPLATE_GLOBALS)
    exec(compile(source, f"<superblock pc={start}>", "exec"),  # noqa: S102
         namespace)
    return SuperBlock(namespace["_sb"], cycles_total, count, last_cost,
                      start, end, dynamic, source)


# ---------------------------------------------------------------------------
# lane-vectorized blocks (``SoCConfig.backend = "vector"``)
# ---------------------------------------------------------------------------

def _lane_wrap_source(scalar_source: str, dynamic: bool) -> str:
    """Rewrap a scalar superblock's generated source as a lane-loop body.

    The scalar generator emits one function per block whose only exits
    are tail ``return`` statements (plus mid-body ``raise BlockFault``
    fault sites).  The lane form runs the identical body once per lane
    inside ``for regs in _lanes:``, collecting each lane's exit value --
    so every emission rule (lazy canonicalization, fault charges, the
    writeback discipline) is inherited verbatim rather than duplicated:

    - static blocks: ``return pc``        -> ``_out.append((pc))`` + the
      lane loop's ``continue``;
    - dynamic blocks: ``return pc, _t, _n`` -> append + ``break`` out of
      the per-lane ``while`` (nothing follows it, so the lane loop
      advances);
    - fault ``raise`` sites are kept as-is: the caller restores every
      lane from its backup and falls back to the scalar path, which
      re-raises with the exact reference-cycle charge.
    """
    lines = scalar_source.splitlines()
    header = ("def _vb(_lanes, budget):" if dynamic
              else "def _vb(_lanes):")
    out = [header, "    _out = []", "    for regs in _lanes:"]
    leave = "break" if dynamic else "continue"
    for line in lines[1:]:  # skip the scalar ``def _sb(...)``
        stripped = line.strip()
        if stripped.startswith("return "):
            indent = line[:len(line) - len(line.lstrip())]
            out.append(f"    {indent}_out.append(("
                       f"{stripped[len('return '):]}))")
            out.append(f"    {indent}{leave}")
        else:
            out.append(f"    {line}")
    out.append("    return _out")
    return "\n".join(out) + "\n"


def compile_lane_superblock(instrs: Sequence[Instr],
                            batchable: Sequence[bool],
                            start: int) -> Optional[SuperBlock]:
    """Compile (or fetch from the memo) the lane-vectorized form of the
    superblock at ``start``.

    Static blocks: ``fn(lanes) -> [next_pc per lane]``.  Dynamic (self-
    loop) blocks: ``fn(lanes, budget) -> [(next_pc, cycles, count) per
    lane]`` -- each lane retires whole iterations against the *same*
    budget, so lanes that exit the loop earlier (data divergence) come
    back with smaller charges and the caller splits them off.
    """
    run = _block_run(instrs, batchable, start)
    return _compile_lane_run(start, run) if run else None


@functools.lru_cache(maxsize=MEMO_BLOCKS)
def _compile_lane_run(start: int, content: BlockRun) -> SuperBlock:
    """Generate the lane superblock for one block content."""
    scalar = _compile_run(start, content)
    source = _lane_wrap_source(scalar.source, scalar.dynamic)
    namespace = dict(TEMPLATE_GLOBALS)
    exec(compile(source, f"<lane superblock pc={start}>", "exec"),  # noqa: S102
         namespace)
    return SuperBlock(namespace["_vb"], scalar.cycles, scalar.count,
                      scalar.last_cost, start, scalar.end, scalar.dynamic,
                      source)


class SuperBlockCache:
    """Lazily compiled superblocks for one decoded program.

    Shared by every core running the program (blocks only touch the
    ``regs`` list they are handed).  ``salt`` records the compiler
    version that built this cache; :meth:`repro.vp.iss.DecodedProgram.
    superblocks` discards caches whose salt no longer matches
    :data:`JIT_SALT`.
    """

    __slots__ = ("_instrs", "_batchable", "blocks", "salt")

    _compile = staticmethod(compile_superblock)

    def __init__(self, instrs: Sequence[Instr],
                 batchable: Sequence[bool]) -> None:
        self._instrs = instrs
        self._batchable = batchable
        self.blocks: List[Optional[SuperBlock]] = [None] * len(instrs)
        self.salt = JIT_SALT

    def get(self, pc: int) -> SuperBlock:
        """The superblock whose leader is ``pc`` (compiled on first use).
        Callers guarantee ``batchable[pc]``."""
        block = self.blocks[pc]
        if block is None:
            block = self._compile(self._instrs, self._batchable, pc)
            if block is None:
                raise ValueError(f"pc {pc} is a sync boundary, "
                                 f"not a superblock leader")
            self.blocks[pc] = block
        return block

    @property
    def compiled_count(self) -> int:
        return sum(1 for block in self.blocks if block is not None)


class LaneBlockCache(SuperBlockCache):
    """Superblock cache whose entries are lane-vectorized (the vector
    backend's tier).  Same lazy/salted discipline as the scalar cache;
    both hang off one :class:`~repro.vp.iss.DecodedProgram`, so one
    decode invalidation drops all compiled tiers together."""

    __slots__ = ()

    _compile = staticmethod(compile_lane_superblock)


__all__ = ["BlockFault", "JIT_SALT", "LaneBlockCache", "MAX_BLOCK_INSTRS",
           "SuperBlock", "SuperBlockCache", "compile_lane_superblock",
           "compile_superblock"]
