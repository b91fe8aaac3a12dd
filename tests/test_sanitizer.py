"""Tests for the happens-before data-race sanitizer (repro.sanitize).

The E11 detection matrix is the headline contract: the racy lost-update
workload is flagged with exact sites, the semaphore-correct variant is
silent, and attaching the sanitizer never changes what the monitored
program computes.
"""

import pytest

from repro.obs import MetricsRegistry, TraceSink
from repro.sanitize import NoCOrderTracker, RaceSanitizer, VectorClock
from repro.vp import SoC, SoCConfig
from repro.vp.soc import DMA_BASE, MBOX_BASE, SEM_BASE
from repro.desim import Simulator
from repro.manycore import Machine, NoCModel

RACY = """
    li r1, 100
    li r2, 0
    li r3, 25
loop:
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""

SAFE = """
    li r1, 100
    li r2, 0
    li r3, 25
    li r4, 0x8000
loop:
acquire:
    lw r5, 0(r4)
    bne r5, r0, acquire
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    sw r0, 0(r4)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""

EXPECTED = 50  # 2 cores x 25 increments
LW_PC, SW_PC = 3, 5  # shared-counter load/store inside RACY's loop


def build(asm):
    return SoC(SoCConfig(n_cores=2), {0: asm, 1: asm})


class TestVectorClock:
    def test_tick_and_get(self):
        vc = VectorClock()
        assert vc.get("a") == 0
        assert vc.tick("a") == 1
        assert vc.tick("a") == 2
        assert vc.get("a") == 2

    def test_join_is_componentwise_max(self):
        left = VectorClock({"a": 3, "b": 1})
        right = VectorClock({"b": 5, "c": 2})
        left.join(right)
        assert left == VectorClock({"a": 3, "b": 5, "c": 2})

    def test_snapshot_is_independent(self):
        vc = VectorClock({"a": 1})
        snap = vc.snapshot()
        vc.tick("a")
        assert snap.get("a") == 1

    def test_ordered_before(self):
        vc = VectorClock({"a": 2})
        assert vc.ordered_before("a", 2)
        assert not vc.ordered_before("a", 3)
        # The epoch (b, 0) never exists: absent components are 0 and
        # every real epoch starts at 1.
        assert not vc.ordered_before("b", 1)

    def test_eq_ignores_zero_components(self):
        assert VectorClock({"a": 1, "b": 0}) == VectorClock({"a": 1})


class TestE11Matrix:
    def test_racy_workload_flags_the_lost_update_race(self):
        soc = build(RACY)
        sanitizer = soc.instrument(sanitizer=True).detector
        soc.run()
        assert sanitizer.races, "lost-update race must be detected"
        # Every report is on the shared counter, nothing else.
        assert {race.address for race in sanitizer.races} == {100}
        # The canonical write-write pair: both cores' sw in the loop.
        pairs = {(race.kind, race.prior.thread, race.prior.pc,
                  race.current.thread, race.current.pc)
                 for race in sanitizer.races}
        assert any(kind == "write-write" and
                   {prior_thread, current_thread} == {"core0", "core1"} and
                   prior_pc == SW_PC and current_pc == SW_PC
                   for kind, prior_thread, prior_pc,
                   current_thread, current_pc in pairs)
        # Both sites carry thread, pc and cycle.
        for race in sanitizer.races:
            for site in (race.prior, race.current):
                assert site.thread in ("core0", "core1")
                assert site.pc >= 0
                assert site.cycle > 0

    def test_semaphore_correct_variant_is_silent(self):
        soc = build(SAFE)
        sanitizer = soc.instrument(sanitizer=True).detector
        soc.run()
        assert soc.mem(100) == EXPECTED
        assert sanitizer.races == []
        assert sanitizer.checked_accesses > 0
        assert sanitizer.report().startswith("data races: 0")

    def test_sanitized_run_is_bit_identical_to_plain_run(self):
        plain = build(RACY)
        plain.run()
        sanitized = build(RACY)
        sanitizer = sanitized.instrument(sanitizer=True).detector
        sanitized.run()
        # Pure observation: same final RAM word, same per-core timing.
        assert sanitized.mem(100) == plain.mem(100)
        assert [cpu.cycle_count for cpu in sanitized.cores] == \
            [cpu.cycle_count for cpu in plain.cores]
        assert [cpu.instr_count for cpu in sanitized.cores] == \
            [cpu.instr_count for cpu in plain.cores]
        assert sanitized.sim.now == plain.sim.now
        # ... and the bug still reproduces while being flagged.
        assert plain.mem(100) < EXPECTED
        assert sanitizer.races

    def test_report_is_byte_identical_across_replays(self):
        reports = []
        for _ in range(2):
            soc = build(RACY)
            sanitizer = soc.instrument(sanitizer=True).detector
            soc.run()
            reports.append(sanitizer.report())
        assert reports[0] == reports[1]
        assert "ram[0x0064]" in reports[0]

    def test_races_dedup_by_site_pair_with_counts(self):
        soc = build(RACY)
        sanitizer = soc.instrument(sanitizer=True).detector
        soc.run()
        # 25 loop iterations collapse into a handful of site pairs, each
        # with an occurrence count; total occurrences cover the loop.
        assert len(sanitizer.races) < 10
        assert all(sanitizer.race_counts[race.key] >= 1
                   for race in sanitizer.races)
        assert sum(sanitizer.race_counts.values()) > len(sanitizer.races)

    def test_obs_outputs(self):
        sink = TraceSink()
        metrics = MetricsRegistry()
        soc = build(RACY)
        soc.instrument(sanitizer={"sink": sink, "metrics": metrics})
        soc.run()
        reports = metrics.counter("race.reports").value
        assert reports > 0
        instants = [record for record in sink.records
                    if record.name == "race.data_race"]
        assert len(instants) == reports
        assert all(record.args["address"] == 100 for record in instants)

    def test_detach_releases_everything(self):
        soc = build(RACY)
        sanitizer = soc.instrument(sanitizer=True).detector
        sanitizer.detach()
        assert soc.bus.observers == []
        assert soc.dma.completion_hooks == []
        soc.run()
        assert sanitizer.races == []
        assert sanitizer.checked_accesses == 0
        sanitizer.detach()  # idempotent


class TestSyncEdges:
    """Unit-level edges, driving the bus directly as named masters."""

    def setup_method(self):
        self.soc = SoC(SoCConfig(n_cores=2), {0: "halt\n", 1: "halt\n"})
        self.sanitizer = RaceSanitizer(self.soc)

    def test_semaphore_handoff_orders_accesses(self):
        bus = self.soc.bus
        assert bus.read(SEM_BASE, master="core0") == 0  # acquire
        bus.write(200, 7, master="core0")
        bus.write(SEM_BASE, 0, master="core0")          # release
        assert bus.read(SEM_BASE, master="core1") == 0  # acquire
        assert bus.read(200, master="core1") == 7
        bus.write(200, 8, master="core1")
        assert self.sanitizer.races == []

    def test_release_without_hold_creates_no_edge(self):
        bus = self.soc.bus
        bus.write(200, 7, master="core0")
        bus.write(SEM_BASE, 0, master="core0")  # store 0, never held
        assert bus.read(SEM_BASE, master="core1") == 0
        bus.write(200, 8, master="core1")
        kinds = [race.kind for race in self.sanitizer.races]
        assert kinds == ["write-write"]

    def test_mailbox_send_receive_orders_accesses(self):
        bus = self.soc.bus
        bus.write(300, 1, master="core0")
        bus.write(MBOX_BASE + 0, 1, master="core0")   # TX_DST = core1
        bus.write(MBOX_BASE + 1, 42, master="core0")  # TX_DATA push
        assert bus.read(MBOX_BASE + 0x10 + 2, master="core1") == 42
        assert bus.read(300, master="core1") == 1
        assert self.sanitizer.races == []

    def test_unreceived_mailbox_word_orders_nothing(self):
        bus = self.soc.bus
        bus.write(300, 1, master="core0")
        bus.write(MBOX_BASE + 0, 1, master="core0")
        bus.write(MBOX_BASE + 1, 42, master="core0")
        # core1 reads the shared word without popping its mailbox.
        bus.read(300, master="core1")
        bus.write(300, 2, master="core1")
        assert [race.kind for race in self.sanitizer.races] == \
            ["write-read", "write-write"]

    def test_dma_start_and_done_poll_order_the_transfer(self):
        bus = self.soc.bus
        bus.write(50, 99, master="core0")            # source data
        bus.write(DMA_BASE + 0, 50, master="core0")  # SRC
        bus.write(DMA_BASE + 1, 60, master="core0")  # DST
        bus.write(DMA_BASE + 2, 1, master="core0")   # LEN
        bus.write(DMA_BASE + 3, 1, master="core0")   # CTRL: start
        self.soc.sim.run()
        status = bus.read(DMA_BASE + 4, master="core1")
        assert status & 2                            # done-bit poll
        assert bus.read(60, master="core1") == 99
        assert self.sanitizer.races == []

    def test_unpolled_dma_write_races_with_reader(self):
        bus = self.soc.bus
        bus.write(50, 99, master="core0")
        bus.write(DMA_BASE + 0, 50, master="core0")
        bus.write(DMA_BASE + 1, 60, master="core0")
        bus.write(DMA_BASE + 2, 1, master="core0")
        bus.write(DMA_BASE + 3, 1, master="core0")
        self.soc.sim.run()
        # core1 reads the destination without any synchronization.
        bus.read(60, master="core1")
        races = [(race.kind, race.prior.thread)
                 for race in self.sanitizer.races]
        assert ("write-read", "dma") in races

    def test_dma_engine_inherits_the_starting_cores_order(self):
        bus = self.soc.bus
        bus.write(50, 5, master="core0")             # core0 writes source
        bus.write(DMA_BASE + 0, 50, master="core0")
        bus.write(DMA_BASE + 1, 60, master="core0")
        bus.write(DMA_BASE + 2, 1, master="core0")
        bus.write(DMA_BASE + 3, 1, master="core0")
        self.soc.sim.run()
        # The DMA's read of word 50 is ordered after core0's write by the
        # CTRL edge: no race between core0 and the dma thread.
        assert all("dma" not in (race.prior.thread, race.current.thread)
                   or race.address != 50
                   for race in self.sanitizer.races)
        assert self.sanitizer.races == []


class TestInterruptEdges:
    def test_doorbell_isr_sees_senders_writes(self):
        """core0 publishes data then rings core1's doorbell; core1's ISR
        pops the word and reads the data -- ordered, no race."""
        sender = """
            li r1, 300
            li r2, 7
            sw r2, 0(r1)      ; publish data
            li r3, 0x8500
            li r4, 1
            sw r4, 0(r3)      ; TX_DST = core1
            sw r2, 1(r3)      ; TX_DATA: ring the doorbell
            halt
        """
        receiver = """
            ei
        spin:
            jmp spin
        isr:
            li r5, 0x8512
            lw r6, 0(r5)      ; pop RX_DATA
            li r1, 300
            lw r7, 0(r1)      ; read the published data
            li r8, 301
            sw r7, 0(r8)
            halt
        """
        from repro.vp.isa import assemble
        receiver_program = assemble(receiver)
        config = SoCConfig(n_cores=2,
                           irq_vector=receiver_program.label("isr"))
        soc = SoC(config, {0: sender, 1: receiver_program})
        soc.intcs[1].add_source(0, soc.mailboxes.doorbells[1])
        soc.intcs[1].write(1, 1)  # unmask the doorbell line
        sanitizer = soc.instrument(sanitizer=True).detector
        soc.run(max_events=100_000)
        assert soc.mem(301) == 7
        assert sanitizer.races == []

    def test_unsynchronized_isr_read_still_races(self):
        """Same shape, but core1's ISR reads a word core0 keeps writing
        *after* the doorbell: that access is unordered and flagged."""
        sender = """
            li r3, 0x8500
            li r4, 1
            sw r4, 0(r3)
            sw r4, 1(r3)      ; ring first
            li r1, 300
            li r2, 7
            sw r2, 0(r1)      ; ... then write: not ordered by the edge
            halt
        """
        receiver = """
            ei
        spin:
            jmp spin
        isr:
            li r1, 300
            lw r7, 0(r1)
            halt
        """
        from repro.vp.isa import assemble
        receiver_program = assemble(receiver)
        config = SoCConfig(n_cores=2,
                           irq_vector=receiver_program.label("isr"))
        soc = SoC(config, {0: sender, 1: receiver_program})
        soc.intcs[1].add_source(0, soc.mailboxes.doorbells[1])
        soc.intcs[1].write(1, 1)
        sanitizer = soc.instrument(sanitizer=True).detector
        soc.run(max_events=100_000)
        assert any(race.address == 300 for race in sanitizer.races) or \
            soc.mem(300) == 0 and sanitizer.checked_accesses > 0


class TestNoCOrderTracker:
    def test_best_effort_message_edge(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(4))
        tracker = NoCOrderTracker(noc)
        noc.send(0, 1, "hello")
        sim.run()
        assert tracker.edge_counts["send"] == 1
        assert tracker.edge_counts["deliver"] == 1
        assert tracker.ordered(0, 1)
        # The message edge is one-directional: the receiver has the
        # sender's segment, the sender knows nothing of the receiver.
        assert tracker.clock(1).get("core0") == 1
        assert tracker.clock(0).get("core1") == 0

    def test_reliable_ack_edge_orders_receiver_before_sender(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(4), reliable=True)
        tracker = NoCOrderTracker(noc)
        noc.send(0, 1, "ping")
        sim.run()
        assert tracker.edge_counts["ack_sent"] >= 1
        assert tracker.edge_counts["acked"] == 1
        # The ack closes the loop: both directions are now ordered.
        assert tracker.ordered(0, 1)
        assert tracker.ordered(1, 0)

    def test_double_attach_rejected(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(2))
        tracker = NoCOrderTracker(noc)
        with pytest.raises(RuntimeError, match="already has"):
            NoCOrderTracker(noc)
        tracker.detach()
        assert noc.hb_hook is None
        NoCOrderTracker(noc)  # re-attach after detach is fine

    def test_untracked_noc_fast_path_untouched(self):
        sim = Simulator()
        noc = NoCModel(sim, Machine(4))
        noc.send(0, 1, "x")
        sim.run()
        message = noc.mailbox(1).receive_nowait()[1]
        assert not hasattr(message, "_hb_send_clock")
