"""Tests for repro.gen: generators, differential harness, shrinker.

The determinism contract is load-bearing everywhere: every artifact is
a pure function of ``random.Random(f"{seed}:{stream}")``, so scenarios,
jobs and whole campaigns must replay byte-identically -- across calls,
across worker counts, and across cold/warm caches.
"""

import random

import pytest

from repro.farm import Executor, canonical_json
from repro.gen import (
    BiasKnobs,
    build_adversarial,
    compare_expr,
    compare_scenario,
    differential_job,
    emit_regression_test,
    generate_adversarial_dicts,
    generate_arch_candidates,
    generate_expr_scenario,
    generate_firmware,
    generate_manycore_config,
    generate_platform_spec,
    generate_scenario,
    generate_soc_config,
    run_firmware_leg,
    run_fuzz_campaign,
    shrink_scenario,
)
from repro.gen.expr import gen_expr, to_asm, to_c
from repro.gen.shrink import _delete_pass, _simplify_pass
from repro.hopes import CICApplication, CICTask, explore_random_architectures
from repro.vp import SoCConfig, assemble


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_scenarios_replay_byte_identically(self):
        for seed in range(10):
            first = generate_scenario(seed)
            second = generate_scenario(seed)
            assert canonical_json(first) == canonical_json(second)

    def test_expr_scenarios_replay_byte_identically(self):
        for seed in range(10):
            assert canonical_json(generate_expr_scenario(seed)) == \
                canonical_json(generate_expr_scenario(seed))

    def test_differential_job_is_pure(self):
        first = differential_job({"kind": "firmware"}, 5)
        second = differential_job({"kind": "firmware"}, 5)
        assert canonical_json(first) == canonical_json(second)

    def test_different_seeds_differ(self):
        assert generate_scenario(1) != generate_scenario(2)


# ---------------------------------------------------------------------------
# firmware generator
# ---------------------------------------------------------------------------

class TestFirmwareGenerator:
    def test_every_family_appears(self):
        families = {generate_scenario(seed)["family"]
                    for seed in range(60)}
        assert families == {"single", "duo", "quad", "irq"}

    def test_all_programs_assemble(self):
        for seed in range(40):
            for source in generate_scenario(seed)["programs"].values():
                assemble(source)

    def test_programs_terminate_on_reference(self):
        # Termination by construction is the harness's ground rule: a
        # max_events cutoff mid-run would compare truncated states.
        for seed in range(12):
            scenario = generate_scenario(seed)
            leg = run_firmware_leg(scenario, "reference", quantum=1)
            assert all(leg["halted"]), \
                f"seed {seed} ({scenario['family']}) did not halt"

    def test_quad_family_shares_one_source(self):
        # The vector backend only groups lanes over a shared program.
        for seed in range(60):
            scenario = generate_scenario(seed)
            if scenario["family"] == "quad":
                assert len(set(scenario["programs"].values())) == 1
                return
        pytest.fail("no quad scenario in 60 seeds")

    def test_bias_knob_zeroing_removes_class(self):
        knobs = BiasKnobs(alu=1.0, overflow=0, div=0, shift=0, mem=0,
                          loop=0, superblock=0, branch=0, call=0,
                          shared=0, semaphore=0, mailbox=0)
        source = generate_firmware(random.Random("k"), knobs,
                                   n_segments=12)
        assert " div " not in source
        assert "jal" not in source

    def test_superblock_knob_crosses_cap(self):
        knobs = BiasKnobs(alu=0, overflow=0, div=0, shift=0, mem=0,
                          loop=0, superblock=1.0, branch=0, call=0)
        source = generate_firmware(random.Random("s"), knobs,
                                   n_segments=1)
        body = [line for line in source.splitlines()
                if line.startswith("    ")]
        assert len(body) > 64  # the loop body spans the superblock cap

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            BiasKnobs(alu=-1.0)
        with pytest.raises(ValueError):
            BiasKnobs.from_dict({"warp": 1.0})
        with pytest.raises(ValueError):
            BiasKnobs(alu=0, overflow=0, div=0, shift=0, mem=0, loop=0,
                      superblock=0, branch=0, call=0, shared=0,
                      semaphore=0, mailbox=0)


# ---------------------------------------------------------------------------
# paired C/asm expression scenarios
# ---------------------------------------------------------------------------

class TestExprScenarios:
    def test_sampled_scenarios_agree_across_all_paths(self):
        for seed in range(15):
            report = compare_expr(generate_expr_scenario(seed))
            assert not report["diverged"], (seed, report["mismatches"])

    def test_mod_lowering_pair_pins_int_min_corner(self):
        # INT_MIN % -1: the tree renders as C "(a % (b | 1))" and as the
        # div/mul/sub lowering; with b = -1 the guard keeps -1 and both
        # sides must return 0 (the _c_mod pin).
        node = ("bin", "%", "mod", ("var", "a"), ("guard", ("var", "b")))
        scenario = {"kind": "expr", "seed": -1,
                    "c_source": f"int main(int a, int b) "
                                f"{{ return {to_c(node)}; }}",
                    "asm_source": to_asm(node, -2 ** 31, -1),
                    "args": [-2 ** 31, -1]}
        report = compare_expr(scenario)
        assert not report["diverged"], report["mismatches"]

    def test_trees_render_valid_pairs(self):
        rng = random.Random("trees")
        for _ in range(30):
            node = gen_expr(rng, depth=4)
            assemble(to_asm(node, 3, 5))  # must always assemble
            assert to_c(node)


# ---------------------------------------------------------------------------
# campaign: caching and byte-identity
# ---------------------------------------------------------------------------

class TestFuzzCampaign:
    def test_smoke_sweep_is_clean(self):
        report = run_fuzz_campaign(8, base_seed=0)
        assert report["divergences"] == 0
        assert report["programs"] == 8

    def test_jobs1_equals_jobs2_equals_warm_cache(self, tmp_path):
        cache = str(tmp_path / "farm")
        serial = run_fuzz_campaign(6, base_seed=100)
        parallel = run_fuzz_campaign(
            6, base_seed=100, executor=Executor(jobs=2, cache=cache))
        warm = run_fuzz_campaign(
            6, base_seed=100, executor=Executor(jobs=1, cache=cache))
        assert serial["aggregate_sha"] == parallel["aggregate_sha"]
        assert serial["aggregate_sha"] == warm["aggregate_sha"]
        assert warm["stats"]["cached"] == 6  # replayed from the cache


# ---------------------------------------------------------------------------
# shrinker mechanics (unit level; the end-to-end pipeline is proven in
# test_fuzz_regressions.py against a planted backend bug)
# ---------------------------------------------------------------------------

def _fake_compare(marker):
    """A stand-in differential: 'diverges' iff any line carries the
    marker and the program still assembles."""
    def compare(scenario):
        for source in scenario["programs"].values():
            assemble(source)
        diverged = any(marker in line
                       for source in scenario["programs"].values()
                       for line in source.splitlines())
        return {"diverged": diverged, "mismatches": [], "digest": "x"}
    return compare


class TestShrinker:
    def test_shrinks_to_the_culprit_line(self):
        scenario = {"kind": "firmware", "n_cores": 1, "quantum": 64,
                    "ram_words": 2048, "irq": None,
                    "programs": {"0": generate_firmware(
                        random.Random("pad")) }}
        lines = scenario["programs"]["0"].splitlines()
        lines.insert(len(lines) // 2, "    xor r5, r5, r5")
        scenario["programs"]["0"] = "\n".join(lines) + "\n"
        shrunk = shrink_scenario(scenario,
                                 compare=_fake_compare("xor r5, r5, r5"))
        kept = shrunk["programs"]["0"].splitlines()
        assert len(kept) <= 2
        assert any("xor r5, r5, r5" in line for line in kept)

    def test_healthy_scenario_refuses_to_shrink(self):
        scenario = {"kind": "firmware", "n_cores": 1, "quantum": 64,
                    "ram_words": 2048, "irq": None,
                    "programs": {"0": "    halt\n"}}
        with pytest.raises(ValueError):
            shrink_scenario(scenario, compare=_fake_compare("never"))

    def test_delete_pass_keeps_only_what_matters(self):
        lines = [f"line{i}" for i in range(20)]
        kept = _delete_pass(lines, lambda ls: "line13" in ls)
        assert kept == ["line13"]

    def test_simplify_pass_zeroes_literals(self):
        lines = ["    li r1, 99999"]
        out = _simplify_pass(lines, lambda ls: "li" in ls[0])
        assert out == ["    li r0, 0"] or out[0].endswith("0")

    def test_emit_regression_test_is_compilable_python(self):
        scenario = {"kind": "firmware", "n_cores": 1, "quantum": 64,
                    "ram_words": 2048, "irq": None,
                    "programs": {"0": "    halt\n"}}
        text = emit_regression_test(scenario, "pinned_example")
        compile(text, "<regression>", "exec")
        assert "compare_scenario" in text
        with pytest.raises(ValueError):
            emit_regression_test(scenario, "bad name")


# ---------------------------------------------------------------------------
# architecture generator
# ---------------------------------------------------------------------------

class TestArchGenerator:
    def test_manycore_configs_are_valid_and_build(self):
        rng = random.Random("mc")
        for _ in range(30):
            config = generate_manycore_config(rng)
            machine = config.build()
            assert machine.n_cores == config.n_cores
            assert machine.distance(0, machine.n_cores - 1) >= 0
            assert machine.distance(0, 0) == 0
            machine.check_power()
            rebuilt = type(config).from_dict(config.to_dict())
            assert rebuilt == config

    def test_platform_specs_are_valid(self):
        rng = random.Random("pf")
        for _ in range(20):
            platform = generate_platform_spec(rng)
            assert platform.pes
            rebuilt = type(platform).from_dict(platform.to_dict())
            assert [pe.name for pe in rebuilt.pes] == \
                [pe.name for pe in platform.pes]

    def test_soc_configs_are_valid(self):
        rng = random.Random("soc")
        for _ in range(20):
            SoCConfig(**generate_soc_config(rng))
        pinned = generate_soc_config(rng, n_cores=3)
        assert pinned["n_cores"] == 3

    def test_arch_candidates_feed_exploration(self):
        rng = random.Random("arch")
        candidates = generate_arch_candidates(rng, count=6)
        assert len(candidates) == 6
        for arch in candidates:
            assert arch.processors[0].proc_type == "host"

    def test_adversarial_dicts_all_rejected(self):
        for entry in generate_adversarial_dicts(random.Random("adv")):
            with pytest.raises(ValueError):
                build_adversarial(entry)


def _two_task_app():
    app = CICApplication("gen-explore")
    app.add_task(CICTask("gen", """
        int n;
        int task_go() { write_port(0, n); n += 1; return 0; }
        """, out_ports=["o"], data_words=32))
    app.add_task(CICTask("sink", """
        int task_go() { int v; v = read_port(0); return 0; }
        """, in_ports=["i"], data_words=32))
    app.connect("gen", "o", "sink", "i")
    return app


class TestExploreRandomArchitectures:
    def test_generated_space_explores_deterministically(self):
        first = explore_random_architectures(_two_task_app, seed=7,
                                             count=4, iterations=4)
        second = explore_random_architectures(_two_task_app, seed=7,
                                              count=4, iterations=4)
        assert first.to_json() == second.to_json()
        assert len(first.points) + len(first.infeasible) == 4
        assert first.pareto or first.infeasible
