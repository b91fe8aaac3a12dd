"""Seeded benchmark inputs: self-checking firmware, debugger sessions and
campaign plans.

Everything here is a pure function of the workload seed.  The program
under test only ever sees what these functions return (assembly source,
SoC shapes, campaign seeds); the expected results are computed here in
Python with 32-bit wrap, independently of every ISS tier.

Each workload draws a *fixed class mix* per round and lets the seed
choose only the details inside a class (operators, constants, group
split, core count with a matching trip count).  The amount of simulated
work per round therefore stays close to constant across seeds, so the
run-to-run spread measures the host, not the dice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gen.arch import generate_arch_candidates
from repro.gen.firmware import generate_scenario
from repro.hopes import to_arch_xml
from repro.vp.isa import BRANCH_OPS, assemble
from repro.vp.soc import DMA_BASE, INTC_BASE, SEM_BASE, TIMER_BASE

MASK32 = 0xFFFFFFFF

# RAM layout (word addresses) shared by every generated platform.
CNT_BASE = 64       # + group: semaphore-guarded lane-id counters
RES_BASE = 128      # + 16 * group + lane id: worker result words
CTRL_DMA_RES = 100  # control core: sum of the DMA destination block
CTRL_IRQ_RES = 101  # control core: ISR accumulator copied at the end
ISR_CNT = 102       # ISR entry counter
ISR_ACC = 103       # ISR accumulator
SCR_BASE = 512      # + 16 * group + lane id: bus-traffic scratch words
DMA_SRC = 1024
DMA_DST = 2048


def wrap32(value: int) -> int:
    """The signed 32-bit two's-complement image (the ISS word)."""
    value &= MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# ---------------------------------------------------------------------------
# worker loop bodies: (asm lines, python model) pairs
# ---------------------------------------------------------------------------
# Register use in a worker program: r1 accumulator, r2/r3/r12 constants
# (r3 odd), r5 lane id, r6 temp, r7 loop index, r8 trip count, r10 the
# lane's scratch word, r11/r13 shift counts.

def _op_model(kind: str, acc: int, i: int, k: Dict[str, int]) -> int:
    if kind == "add_c":
        return wrap32(acc + k["c1"])
    if kind == "sub_c":
        return wrap32(acc - k["c3"])
    if kind == "add_i":
        return wrap32(acc + i)
    if kind == "xor_i":
        return acc ^ i
    if kind == "xor_c":
        return acc ^ k["c1"]
    if kind == "mul_c":
        return wrap32(acc * k["c2"])
    if kind == "or_c":
        return acc | k["c3"]
    if kind == "xorshl":
        return acc ^ wrap32((acc & MASK32) << (k["s1"] & 31))
    if kind == "xorshr":
        return acc ^ (acc >> (k["s2"] & 31))
    raise ValueError(kind)


_OP_ASM = {
    "add_c": ["    add r1, r1, r2"],
    "sub_c": ["    sub r1, r1, r12"],
    "add_i": ["    add r1, r1, r7"],
    "xor_i": ["    xor r1, r1, r7"],
    "xor_c": ["    xor r1, r1, r2"],
    "mul_c": ["    mul r1, r1, r3"],
    "or_c": ["    or r1, r1, r12"],
    "xorshl": ["    shl r6, r1, r11", "    xor r1, r1, r6"],
    "xorshr": ["    shr r6, r1, r13", "    xor r1, r1, r6"],
}
# A loop body of n ops is a seeded order of the first n of these.  The
# multiset is fixed, so the host cost of an iteration does not depend
# on the seed; the xorshifts and the odd multiply keep the accumulator
# from collapsing.
OP_MIX = ("mul_c", "xorshr", "add_i", "xor_c", "xorshl", "sub_c", "xor_i",
          "add_c", "or_c")


def _draw_ops(rng: random.Random, count: int) -> List[str]:
    return rng.sample(OP_MIX[:count], count)


@dataclass
class WorkerGroup:
    """Cores that run one shared program (a lane group on ``vector``)."""

    group: int
    size: int
    trips: int
    ops: List[str]
    consts: Dict[str, int]
    divergent: bool       # lanes take unique ids and distinct values
    bus_every: int        # 0 = no bus traffic inside the loop

    def source(self) -> str:
        k = self.consts
        if self.divergent:
            # Unique lane id in r5 via a semaphore-guarded counter:
            # cores cannot read their index, and a racy increment would
            # hand every lockstep lane the same id.
            lines = [f"    li r4, {SEM_BASE + self.group}",
                     "acq:",
                     "    lw r5, 0(r4)",
                     "    bne r5, r0, acq",
                     f"    li r9, {CNT_BASE + self.group}",
                     "    lw r5, 0(r9)",
                     "    addi r6, r5, 1",
                     "    sw r6, 0(r9)",
                     "    sw r0, 0(r4)"]
        else:
            # Twins: every lane holds the same registers all run long
            # (they may share one execution on ``vector``), and they all
            # store the same value to the same words.
            lines = ["    li r5, 0"]
        lines += [
            f"    li r1, {k['a0']}",
            f"    li r2, {k['c1']}",
            f"    li r3, {k['c2']}",
            f"    li r12, {k['c3']}",
            f"    li r11, {k['s1']}",
            f"    li r13, {k['s2']}",
            f"    li r10, {SCR_BASE + 16 * self.group}",
            "    add r10, r10, r5",
        ]
        if self.divergent:
            lines += [f"    li r6, {k['lane_k']}",
                      "    mul r6, r6, r5",
                      "    add r1, r1, r6"]
        lines += ["    li r7, 0", f"    li r8, {self.trips}", "loop:"]
        for index, kind in enumerate(self.ops, start=1):
            lines += _OP_ASM[kind]
            if self.bus_every and index % self.bus_every == 0:
                lines += ["    sw r1, 0(r10)", "    lw r1, 0(r10)"]
        lines += ["    addi r7, r7, 1",
                  "    blt r7, r8, loop",
                  f"    li r9, {RES_BASE + 16 * self.group}",
                  "    add r9, r9, r5",
                  "    sw r1, 0(r9)",
                  "    halt"]
        return "\n".join(lines) + "\n"

    def expected(self) -> Dict[int, int]:
        k = self.consts
        results = {}
        for lane in range(self.size if self.divergent else 1):
            acc = k["a0"]
            if self.divergent:
                acc = wrap32(acc + wrap32(k["lane_k"] * lane))
            for i in range(self.trips):
                for kind in self.ops:
                    acc = _op_model(kind, acc, i, k)
            results[RES_BASE + 16 * self.group + lane] = acc
        return results


def _worker_group(rng: random.Random, group: int, size: int, trips: int,
                  n_ops: int, divergent: bool,
                  bus_every: int) -> WorkerGroup:
    consts = {"a0": rng.randint(-2 ** 31, 2 ** 31 - 1),
              "c1": rng.randint(-2 ** 31, 2 ** 31 - 1),
              "c2": rng.randrange(3, 2 ** 31 - 1, 2),
              "c3": rng.randint(1, 2 ** 20),
              "s1": rng.randint(1, 31), "s2": rng.randint(1, 31),
              "lane_k": rng.randint(1, 2 ** 16)}
    return WorkerGroup(group, size, trips, _draw_ops(rng, n_ops), consts,
                       divergent, bus_every)


# ---------------------------------------------------------------------------
# the control core: DMA copy-and-sum, timer -> INTC -> ISR
# ---------------------------------------------------------------------------

@dataclass
class Control:
    """Core 0's program when a platform uses the DMA or the timer irq."""

    dma_words: List[int] = field(default_factory=list)
    irq_count: int = 0
    irq_period: int = 0
    irq_step: int = 0

    def source(self) -> str:
        lines: List[str] = []
        if self.dma_words:
            length = len(self.dma_words)
            lines += [f"    li r4, {DMA_BASE}",
                      f"    li r6, {DMA_SRC}", "    sw r6, 0(r4)",
                      f"    li r6, {DMA_DST}", "    sw r6, 1(r4)",
                      f"    li r6, {length}", "    sw r6, 2(r4)",
                      "    li r6, 1", "    sw r6, 3(r4)",
                      "    li r9, 2",
                      "dpoll:",
                      "    lw r6, 4(r4)",
                      "    and r6, r6, r9",
                      "    beq r6, r0, dpoll",
                      "    sw r0, 4(r4)",
                      "    li r1, 0", "    li r7, 0",
                      f"    li r8, {length}", f"    li r10, {DMA_DST}",
                      "dsum:",
                      "    lw r6, 0(r10)",
                      "    add r1, r1, r6",
                      "    addi r10, r10, 1",
                      "    addi r7, r7, 1",
                      "    blt r7, r8, dsum",
                      f"    sw r1, {CTRL_DMA_RES}(r0)"]
        if self.irq_count:
            # The ISR saves no registers, so it only touches r9/r12/r13,
            # which the waiting loop never uses.
            lines += [f"    li r4, {INTC_BASE + 1}",
                      "    li r6, 1", "    sw r6, 0(r4)",
                      f"    li r4, {TIMER_BASE}",
                      f"    li r6, {self.irq_period}", "    sw r6, 1(r4)",
                      "    li r6, 3", "    sw r6, 0(r4)",
                      f"    li r8, {self.irq_count}",
                      "    li r2, 0",
                      "    ei",
                      "iwait:",
                      "    addi r2, r2, 1",
                      "    addi r2, r2, 3",
                      "    xor r2, r2, r8",
                      f"    lw r1, {ISR_CNT}(r0)",
                      "    blt r1, r8, iwait",
                      "    di",
                      f"    lw r1, {ISR_ACC}(r0)",
                      f"    sw r1, {CTRL_IRQ_RES}(r0)"]
        lines.append("    halt")
        if self.irq_count:
            lines += ["isr:",
                      f"    li r9, {TIMER_BASE + 3}",
                      "    sw r0, 0(r9)",
                      f"    lw r9, {ISR_CNT}(r0)",
                      "    addi r9, r9, 1",
                      f"    sw r9, {ISR_CNT}(r0)",
                      f"    lw r12, {ISR_ACC}(r0)",
                      f"    addi r12, r12, {self.irq_step}",
                      f"    sw r12, {ISR_ACC}(r0)",
                      f"    li r13, {self.irq_count}",
                      "    blt r9, r13, iack",
                      f"    li r13, {TIMER_BASE}",
                      "    sw r0, 0(r13)",
                      "iack:",
                      f"    li r13, {INTC_BASE + 2}",
                      "    li r12, 1",
                      "    sw r12, 0(r13)",
                      "    iret"]
        if self.dma_words:
            lines.append(f".org {DMA_SRC}")
            lines.append(".word " + " ".join(str(w) for w in self.dma_words))
        return "\n".join(lines) + "\n"

    def expected(self) -> Dict[int, int]:
        results = {}
        if self.dma_words:
            results[CTRL_DMA_RES] = wrap32(sum(self.dma_words))
        if self.irq_count:
            results[CTRL_IRQ_RES] = wrap32(self.irq_count * self.irq_step)
            results[ISR_CNT] = self.irq_count
        return results


# ---------------------------------------------------------------------------
# one platform instance
# ---------------------------------------------------------------------------

@dataclass
class Platform:
    """One bare SoC run: the programs, its shape and its expected words."""

    name: str
    n_cores: int
    programs: Dict[int, str]
    expected: Dict[int, int]
    irq_vector: Optional[int] = None   # set when core 0 takes the timer irq


def make_platform(rng: random.Random, name: str, groups: List[int],
                  trips: int, n_ops: int, divergent: bool, bus_every: int,
                  dma: int = 0, irq: int = 0) -> Platform:
    """Control core (when ``dma``/``irq``) first, then one worker group
    per entry of ``groups`` (its core count)."""
    programs: Dict[int, str] = {}
    expected: Dict[int, int] = {}
    irq_vector = None
    core = 0
    if dma or irq:
        control = Control(
            dma_words=[rng.randint(-2 ** 31, 2 ** 31 - 1)
                       for _ in range(dma)],
            irq_count=irq, irq_period=rng.randint(120, 200),
            irq_step=rng.randint(1, 2 ** 20))
        programs[core] = control.source()
        expected.update(control.expected())
        if irq:
            irq_vector = assemble(programs[core]).label("isr")
        core += 1
    for group, size in enumerate(groups):
        worker = _worker_group(rng, group, size, trips, n_ops, divergent,
                               bus_every)
        source = worker.source()
        for _ in range(size):
            programs[core] = source
            core += 1
        expected.update(worker.expected())
    return Platform(name, core, programs, expected, irq_vector)


def _split(rng: random.Random, cores: int) -> List[int]:
    """A seeded split of ``cores`` into 1-3 lane groups."""
    parts = rng.choice([1, 2, 2, 3]) if cores >= 3 else rng.choice([1, 2])
    parts = min(parts, cores)
    cuts = sorted(rng.sample(range(1, cores), parts - 1))
    bounds = [0] + cuts + [cores]
    return [b - a for a, b in zip(bounds, bounds[1:])]


# Fixed per-round class mix of the ``platform`` workload.  Loop work per
# class is (worker cores x trips x ops) and stays fixed when the seed
# picks the core count: trips scale inversely.
PLATFORM_CLASSES = (
    # name, core range, core-trips budget, ops, divergent, bus_every,
    # dma words, irq count, copies per round
    ("steady", (2, 4), 2400, 6, False, 0, 0, 0, 2),
    ("twins", (4, 8), 3200, 6, False, 0, 0, 0, 2),
    ("lanes", (4, 8), 2400, 6, True, 0, 0, 0, 2),
    ("busdense", (2, 6), 1200, 6, True, 2, 0, 0, 2),
    ("bussparse", (3, 8), 1600, 6, False, 6, 0, 0, 2),
    ("dma", (2, 5), 800, 6, True, 4, 128, 0, 1),
    ("irq", (2, 4), 800, 6, False, 0, 0, 6, 1),
    ("dmairq", (3, 8), 800, 6, True, 8, 64, 4, 1),
    ("short", (2, 8), 24, 4, True, 3, 0, 0, 8),
)


def platform_instances(seed: int) -> List[Platform]:
    """One round of the ``platform`` workload: a fixed class mix with
    seeded operator order, constants and group splits.  Each class's
    copies spread evenly over its core range, in seeded order."""
    rng = random.Random(f"{seed}:platform")
    instances = []
    for (name, (lo, hi), budget, n_ops, divergent, bus_every, dma, irq,
         copies) in PLATFORM_CLASSES:
        spread = [lo + round(k * (hi - lo) / (copies - 1))
                  for k in range(copies)] if copies > 1 else [(lo + hi) // 2]
        for copy, cores in enumerate(rng.sample(spread, copies)):
            workers = cores - 1 if (dma or irq) else cores
            trips = max(1, budget // workers) if name != "short" \
                else budget
            instances.append(make_platform(
                rng, f"{name}{copy}", _split(rng, workers), trips, n_ops,
                divergent, bus_every, dma=dma, irq=irq))
    return instances


# ---------------------------------------------------------------------------
# observed: debugger sessions
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """One inspect-loop platform plus its seeded debugger plan."""

    platform: Platform
    breakpoint: Tuple[int, int]    # (core, pc) inside the first worker loop
    watch_address: int             # bus-write watchpoint
    watch_mask: int                # stop only on values with these bits 0
    stop_fractions: List[float]    # forward stops, as shares of the run
    rewind_picks: List[int]        # indexes into the stops to rewind to
    checkpoint_pick: int           # stop index to checkpoint at


OBSERVED_CLASSES = (
    # name, groups, trips, ops, divergent, bus_every, dma, irq
    ("duo", [1, 1], 90, 6, True, 3, 0, 0),
    ("twins", [3], 60, 6, False, 4, 0, 0),
    ("irq", [2], 60, 5, True, 5, 0, 3),
    ("dma", [2], 60, 5, False, 0, 48, 0),
)


def observed_sessions(seed: int) -> List[Session]:
    rng = random.Random(f"{seed}:observed")
    sessions = []
    for name, groups, trips, n_ops, divergent, bus_every, dma, irq \
            in OBSERVED_CLASSES:
        platform = make_platform(rng, name, groups, trips, n_ops,
                                 divergent, bus_every, dma=dma, irq=irq)
        worker_core = 1 if (dma or irq) else 0
        program = assemble(platform.programs[worker_core])
        loop = program.label("loop")
        body = program.instructions.index(
            next(i for i in program.instructions[loop:] if i.op == "blt"),
            loop) - loop
        # Twins share lane slot 0; divergent lanes each own a slot.
        lane = rng.randrange(groups[0]) if divergent else 0
        if bus_every:
            watch_address = SCR_BASE + lane
            watch_mask = 15
        elif dma:
            watch_address = DMA_DST + rng.randrange(dma)
            watch_mask = 0
        else:
            watch_address = RES_BASE + lane
            watch_mask = 0
        # Stops near 15/35/55/75 % of the run, so the five forward
        # commands cover similar stretches whatever the seed.
        stops = [0.15 + 0.2 * k + rng.uniform(-0.02, 0.02)
                 for k in range(4)]
        sessions.append(Session(
            platform=platform,
            breakpoint=(worker_core, loop + rng.randrange(body)),
            watch_address=watch_address, watch_mask=watch_mask,
            stop_fractions=stops,
            rewind_picks=rng.sample(range(len(stops)), 3),
            checkpoint_pick=rng.randrange(len(stops))))
    return sessions


# ---------------------------------------------------------------------------
# campaigns: a seeded sequence of farm campaigns
# ---------------------------------------------------------------------------

@dataclass
class CampaignOp:
    """One campaign of the ``campaigns`` workload.

    ``kind`` is ``fuzz`` (``run_fuzz_campaign``) or ``explore``
    (``explore_random_architectures``).  ``replay_of`` names the cold
    campaign whose aggregate a warm replay must reproduce byte for byte;
    ``extension`` marks a half-overlapping extension.
    """

    label: str
    kind: str
    fuzz_kind: str = ""
    base_seed: int = 0
    count: int = 0
    iterations: int = 0
    replay_of: Optional[str] = None
    extension: bool = False

    @property
    def cold(self) -> bool:
        return self.replay_of is None and not self.extension

    def job_identities(self) -> List[Tuple]:
        """What makes each job's cache key, in submission order."""
        if self.kind == "fuzz":
            return [("fuzz", self.fuzz_kind, seed) for seed
                    in range(self.base_seed, self.base_seed + self.count)]
        return [("explore", to_arch_xml(arch), self.iterations)
                for arch in generate_arch_candidates(
                    random.Random(f"{self.base_seed}:arch"), self.count)]


FUZZ_COUNT = {"firmware": 6, "expr": 8}
EXPLORE_COUNT = 4
EXPLORE_ITERATIONS = 8
SESSIONS = 3
# Firmware fuzz windows: scanned candidates, the estimated cost (ms on
# the reference host) of a session's cold window and of the new half of
# its extension, and the estimated retired instructions of both.
WINDOW_CANDIDATES = 100
COLD_COST, NEW_COST, SESSION_INSTRS = 270.0, 135.0, 6000


def _program_shape(source: str, skip: Tuple[str, ...] = ()) -> Tuple[int, int]:
    """(instructions retired, static length) of a generated fuzz
    program, estimated statically: the length plus, for every backward
    branch, the loop body times the trip count loaded into the branch's
    bound register before the loop.  Loops at labels in ``skip`` count
    once."""
    program = assemble(source)
    instructions = program.instructions
    names = {index: name for name, index in program.labels.items()}
    total = len(instructions)
    for index, instr in enumerate(instructions):
        if instr.op not in BRANCH_OPS or instr.args[2] > index:
            continue
        target, bound = instr.args[2], instr.args[1]
        if names.get(target) in skip:
            continue
        for earlier in reversed(instructions[:target]):
            if earlier.op == "li" and earlier.args[0] == bound:
                total += (index - target + 1) * max(0, earlier.args[1] - 1)
                break
    return total, len(instructions)


def fuzz_shape(seed: int) -> Tuple[float, int]:
    """Estimated (host cost, retired ISS instructions) of one firmware
    differential job.

    The cost is a linear model fitted on sampled seeds (r = 0.94):
    retired instructions (the reference leg), static code size
    (superblock compiles on two tiers) and core count (per-core set-up
    on four legs).  An irq scenario whose ISR returns spins with its
    interrupt window open, where every tier runs per instruction; one
    whose ISR halts never reaches its spin loop."""
    scenario = generate_scenario(seed)
    sources = list(scenario["programs"].values())
    instrs = weighted = length = 0
    for source in set(sources):
        copies = sources.count(source)
        if scenario["family"] != "irq":
            retired, size = _program_shape(source)
            weight = 1
        elif "iret" in source:
            retired, size = _program_shape(source)
            weight = 4
        else:
            retired, size = _program_shape(source, skip=("spin",))
            weight = 1
        instrs += retired * copies
        weighted += retired * copies * weight
        length += size
    return weighted / 200 + length / 6 + 8 * scenario["n_cores"], instrs


def _firmware_window(rng: random.Random, count: int, instrs_so_far: int,
                     session: int) -> Tuple[int, int]:
    """A base seed whose fuzz window is close to the cost targets.

    Scenario cost varies tenfold from seed to seed, so plain seeded
    windows would make every campaign's latency, and the round's work,
    depend on the dice.  Among a fixed number of candidate windows the
    one nearest the cold and extension cost targets wins, with the
    round's running instruction total kept near ``session + 1`` times
    its target, so early misses are made up later.  The scan costs the
    same for every seed.  Returns the base seed and the window's
    estimated instructions."""
    start = rng.randrange(1, 10 ** 6)
    half = count // 2
    shapes = [fuzz_shape(start + i)
              for i in range(WINDOW_CANDIDATES + count + half)]

    def sums(offset: int) -> Tuple[float, float, int]:
        cold = shapes[offset:offset + count]
        new = shapes[offset + count:offset + count + half]
        return (sum(cost for cost, _ in cold), sum(cost for cost, _ in new),
                sum(instrs for _, instrs in cold + new))

    def distance(offset: int) -> float:
        cold, new, instrs = sums(offset)
        total = instrs_so_far + instrs
        return (abs(cold / COLD_COST - 1) + abs(new / NEW_COST - 1)
                + abs(total / ((session + 1) * SESSION_INSTRS) - 1))
    best = min(range(WINDOW_CANDIDATES), key=distance)
    return start + best, sums(best)[2]


def campaign_plan(seed: int) -> List[CampaignOp]:
    """A round: per session, cold firmware/expr fuzz and exploration
    campaigns, then warm replays and half-overlapping extensions of
    them (cache reads beside cache writes)."""
    rng = random.Random(f"{seed}:campaigns")
    plan: List[CampaignOp] = []
    instrs_so_far = 0
    for session in range(SESSIONS):
        fw, ex = FUZZ_COUNT["firmware"], FUZZ_COUNT["expr"]
        fw_seed, instrs = _firmware_window(rng, fw, instrs_so_far, session)
        instrs_so_far += instrs
        ex_seed = rng.randrange(1, 10 ** 6)
        arch_seed = rng.randrange(1, 10 ** 6)
        tag = f"s{session}"
        plan += [
            CampaignOp(f"{tag}.fw", "fuzz", "firmware", fw_seed, fw),
            CampaignOp(f"{tag}.expr", "fuzz", "expr", ex_seed, ex),
            CampaignOp(f"{tag}.arch", "explore", base_seed=arch_seed,
                       count=EXPLORE_COUNT, iterations=EXPLORE_ITERATIONS),
            CampaignOp(f"{tag}.fw.warm", "fuzz", "firmware", fw_seed, fw,
                       replay_of=f"{tag}.fw"),
            CampaignOp(f"{tag}.fw.ext", "fuzz", "firmware",
                       fw_seed + fw // 2, fw, extension=True),
            CampaignOp(f"{tag}.arch.warm", "explore", base_seed=arch_seed,
                       count=EXPLORE_COUNT, iterations=EXPLORE_ITERATIONS,
                       replay_of=f"{tag}.arch"),
            CampaignOp(f"{tag}.expr.ext", "fuzz", "expr", ex_seed + ex // 2,
                       ex, extension=True),
            CampaignOp(f"{tag}.expr.warm", "fuzz", "expr", ex_seed, ex,
                       replay_of=f"{tag}.expr"),
        ]
    return plan


def sample_fuzz_seeds(plan: List[CampaignOp], kind: str) -> List[int]:
    """The first two scenarios of every cold fuzz campaign of ``kind``
    (the per-tier leg probe's sample)."""
    return [op.base_seed + i for op in plan
            if op.kind == "fuzz" and op.fuzz_kind == kind and op.cold
            for i in range(2)]
