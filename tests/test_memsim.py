import hashlib
import itertools
import pathlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_context, make_device
from tensortier.config import DeviceConfig
from tensortier.instrument import emit_program, parse_program
from tensortier.policies import run_policy
from tensortier.prefetch import plan_migrations
from tensortier.simulate import (GPU, KernelStat, SimulationError, _Engine,
                                 ideal_run, perturb_durations, simulate,
                                 ssd_lifetime_years)
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace, synthesize_trace)


def _planned(trace, device, **kwargs):
    context = make_context(trace, device)
    result = plan_migrations(context, **kwargs)
    return emit_program(context, result.plan)


def test_s1_end_to_end(s1_trace, device):
    result = run_policy("g10", s1_trace, device)
    assert result.total_us == 130
    assert result.compute_us == 100
    assert result.stall_us == 30
    assert result.faults == 0
    # k1 waits for the eviction to free room; k3 waits for the prefetch,
    # which was parked until the big activation died
    assert [(k.start_us, k.end_us, k.stall_us) for k in result.kernels] == [
        (0, 25, 0), (40, 65, 15), (65, 90, 0), (105, 130, 15)]
    t = result.traffic
    assert (t.ssd_read, t.ssd_write, t.host_in, t.host_out) == (
        40_960, 40_960, 0, 0)


def test_s1r_end_to_end(s1r_trace, device):
    result = run_policy("g10", s1r_trace, device)
    assert result.total_us == 130
    assert result.stall_us == 30
    assert result.faults == 0
    t = result.traffic
    assert (t.ssd_read, t.ssd_write, t.host_in, t.host_out) == (
        20_480, 20_480, 40_960, 40_960)


def test_waiting_on_pending_prefetch_is_not_a_fault(s1_trace, device):
    # k3 finds its weight still in flight and waits without paying the
    # fault-handling penalty
    result = run_policy("g10", s1_trace, device)
    assert result.faults == 0
    assert result.fault_log == []


def test_single_page_fault_costs_handling_plus_transfer():
    # 45 us handling + 3 us host latency + 1 us to move one page
    tensors = {0: TensorDescriptor(0, 4_096, TensorKind.GLOBAL)}
    kernels = (KernelRecord(0, "k", 10, frozenset({0}), frozenset()),)
    trace = WorkloadTrace(tensors, kernels)
    result = run_policy("base-uvm", trace, DeviceConfig())
    assert result.faults == 1
    assert result.kernels[0].start_us == 49
    assert result.total_us == 59
    assert result.traffic.host_in == 4_096


def test_fault_moves_whole_tensor_in_chunks():
    # 4 MiB on the host: two 2 MiB chunks, each paying handling + latency
    size = 4 * 1024 * 1024
    tensors = {0: TensorDescriptor(0, size, TensorKind.GLOBAL)}
    kernels = (KernelRecord(0, "k", 10, frozenset({0}), frozenset()),)
    trace = WorkloadTrace(tensors, kernels)
    result = run_policy("base-uvm", trace, DeviceConfig())
    chunk_us = 45 + 3 + -(-2097152 // 15754)
    assert result.faults == 1
    assert result.kernels[0].start_us == 2 * chunk_us
    assert result.traffic.host_in == size


def test_transfer_conservation(s1r_trace, device):
    # planned migrations are symmetric over one iteration: everything
    # written out is read back
    for policy in ("g10", "g10-ssd-only"):
        t = run_policy(policy, s1r_trace, device).traffic
        assert t.ssd_write == t.ssd_read
        assert t.host_out == t.host_in


def test_multi_iteration_replays_plan(s1_trace):
    one = run_policy("g10", s1_trace, make_device_iters(1))
    three = run_policy("g10", s1_trace, make_device_iters(3))
    assert three.faults == 0
    assert three.traffic.ssd_write == 3 * one.traffic.ssd_write
    # steady state: later iterations behave like the first
    assert three.total_us == 3 * one.total_us
    assert three.compute_us == 300


def make_device_iters(n):
    return DeviceConfig(
        gpu_mem_bytes=102_400, host_mem_bytes=1_000_000,
        ssd_capacity_bytes=10_000_000,
        ssd_read_bw=4096, ssd_write_bw=4096, host_bw=4096,
        ssd_read_latency_us=5, ssd_write_latency_us=5, host_latency_us=5,
        page_size_bytes=1024, num_iterations=n)


def test_determinism_and_seed_sensitivity(s1r_trace, device):
    a = run_policy("g10", s1r_trace, device, seed=1, noise_pct=0.3)
    b = run_policy("g10", s1r_trace, device, seed=1, noise_pct=0.3)
    c = run_policy("g10", s1r_trace, device, seed=2, noise_pct=0.3)
    assert a.event_log_sha256 == b.event_log_sha256
    assert a.total_us == b.total_us
    assert c.event_log_sha256 != a.event_log_sha256


def test_ideal_run(s1_trace, device):
    result = ideal_run(s1_trace, device)
    assert result.total_us == 100
    assert result.stall_us == 0
    assert result.faults == 0
    assert [(k.start_us, k.end_us) for k in result.kernels] == [
        (0, 25), (25, 50), (50, 75), (75, 100)]


def test_ideal_run_digest_is_unchanged():
    trace = synthesize_trace(3, (8_000, 30_000), (4_000, 12_000), (20, 80), 7)
    result = run_policy("ideal", trace, make_device(num_iterations=3),
                        seed=5, noise_pct=0.2)
    assert (result.total_us, len(result.kernels)) == (846, 18)
    text = "".join(f"{ks.start_us} kernel {ks.kernel_index}\n"
                   for ks in result.kernels)
    assert result.log == text
    assert hashlib.sha256(text.encode()).hexdigest() == result.event_log_sha256
    # recorded before ideal_run hashed its lines in one update
    assert result.event_log_sha256 == (
        "9d49584bb5688c3da29b0bceab5265997ba76fde421918308679eb49330e1326")


def test_kernel_stats_are_immutable(s1_trace, device):
    stat = ideal_run(s1_trace, device).kernels[1]
    assert stat == KernelStat(1, 0, 1, "k1", 25, 50, 0)
    with pytest.raises(AttributeError):
        stat.stall_us = 3
    assert stat.stall_us == 0


def test_program_must_match_trace(s1_trace, s1r_trace, device):
    from tensortier.simulate import ProgramInconsistentError
    program = _planned(s1r_trace, device)
    with pytest.raises(ProgramInconsistentError):
        simulate(make_context(s1_trace, device), program)


def test_empty_program_faults_for_missing_globals(s1_trace, device):
    # no migration directives at all: weights on the host fault in on use
    result = run_policy("base-uvm", s1_trace, device)
    assert result.faults > 0
    assert result.total_us > 130


@settings(max_examples=25, deadline=None)
@given(noise=st.floats(0.01, 0.45), seed=st.integers(0, 10**6))
def test_perturb_durations_bounds(noise, seed):
    trace = WorkloadTrace(
        {0: TensorDescriptor(0, 1024, TensorKind.GLOBAL)},
        tuple(KernelRecord(i, f"k{i}", 1000, frozenset({0}), frozenset())
              for i in range(20)),
    )
    rows = perturb_durations(trace, noise, seed, 3)
    assert len(rows) == 3 and all(len(r) == 20 for r in rows)
    for row in rows:
        for d in row:
            assert 1 <= d
            assert (1 - noise) * 1000 - 1 <= d <= (1 + noise) * 1000 + 1
    again = perturb_durations(trace, noise, seed, 3)
    assert rows == again


def test_ssd_lifetime_matches_endurance_model():
    # 30 drive-writes/day for the rated five years, drained at the write
    # rate of the default drive
    years = ssd_lifetime_years(3200 * 10**9, 1500.0)
    assert years == pytest.approx(3.7037, abs=0.01)


def test_event_log_hash_covers_order(s1r_trace, device):
    a = run_policy("g10", s1r_trace, device)
    assert a.log.splitlines()
    assert hashlib.sha256(a.log.encode()).hexdigest() == a.event_log_sha256
    assert a == run_policy("g10", s1r_trace, device)


def test_fault_train_with_reparked_fetch_keeps_event_log():
    # kernel 5 needs w0 (host, faulted in 4 KiB chunks) and a3 (on SSD, its
    # fault parked for room). While w0's chunks run, the LRU evictions land
    # one by one: the first unparks a3's fault, which parks again; the
    # second funds it. The lines were recorded before chunk trains and the
    # stream's re-evaluation rule went in.
    trace = synthesize_trace(3, (8_000, 30_000), (4_000, 12_000), (20, 80),
                             950777)
    dev = make_device(gpu_mem_bytes=49_152, host_mem_bytes=25_600,
                      fault_chunk_bytes=4_096, fault_handling_us=0)
    events = run_policy("base-uvm", trace, dev).log.splitlines()
    golden = pathlib.Path(__file__).parent / "golden"
    assert events == (
        golden / "fault_train_repark_events.txt").read_text().splitlines()
    window = events[events.index("308 fault t3 kernel 5"):
                    events.index("322 xfer_start fault t3 ssd/to_device 4096")]
    assert window.count("308 park fault t3") == 1
    assert "315 park fault t3" in window
    assert "314 xfer_start fault t0 host/to_device 4096" in window


def test_fault_train_run_ahead_keeps_event_log():
    # g10 faults t4 (22,528 padded bytes) onto the SSD inbound lane in
    # 3 KiB chunks, seven full and a partial one. Its first chunk lands
    # with no stream advance since the fault, so the stream's idle epoch
    # is stale; the SSD outbound lane's evictions land mid-train, the one
    # at 124 on a chunk boundary, ahead of the chunk. The trains of t5 and
    # t1 that follow run with nothing else due. The lines were recorded
    # before fault-chunk trains ran ahead in closed form.
    trace = synthesize_trace(4, (8_000, 60_000), (4_000, 24_000), (20, 80),
                             744323)
    dev = make_device(gpu_mem_bytes=84_992, host_mem_bytes=60_000,
                      fault_chunk_bytes=3_072, fault_handling_us=0)
    events = run_policy("g10", trace, dev).log.splitlines()
    golden = pathlib.Path(__file__).parent / "golden"
    assert events == (
        golden / "fault_train_run_ahead_events.txt").read_text().splitlines()
    train = events[events.index("100 fault t4 kernel 1"):
                   events.index("148 xfer_done fault t4") + 1]
    chunks = [line.split()[-1] for line in train
              if " xfer_start fault t4 " in line]
    assert chunks == ["3072"] * 7 + ["1024"]
    landed = [line for line in train if " xfer_done " in line]
    # no other completion, hence no stream advance, before the first chunk
    assert landed[0] == "106 xfer_done fault t4"
    assert "109 xfer_done evict t1" in landed
    tie = train.index("124 xfer_done evict t5")
    assert train[tie + 1] == "124 xfer_done fault t4"
    assert "111 xfer_start evict t5 ssd/from_device 32768" in train


def test_event_log_agrees_on_fault_trains():
    # page-sized chunks: every fault is a train of hundreds of chunks
    trace = synthesize_trace(3, (300_000, 600_000), (100_000, 300_000),
                             (20, 80), 5)
    dev = make_device(gpu_mem_bytes=1_400_000, host_mem_bytes=10_000_000,
                      fault_chunk_bytes=1_024, fault_handling_us=1)
    result = run_policy("base-uvm", trace, dev)
    assert result.faults
    faulted = [line.split()[3] for line in result.log.splitlines()
               if " xfer_start fault " in line]
    assert max(len(list(run)) for _, run in itertools.groupby(faulted)) > 512
    assert hashlib.sha256(result.log.encode()).hexdigest() == (
        result.event_log_sha256)
    # recorded before fault-chunk trains ran ahead in closed form
    assert result.event_log_sha256 == (
        "bbf964c2f09e4d61f5ce2a705210edb28c2c3899b091b0747075c793d2ce8ff2")


def test_long_fault_train_runs_ahead_to_the_next_event():
    # t0 (3 MiB, on the host) faults in 3,072 chunks of 1 KiB, one every
    # 6 us. Nothing else is due before t1's prefetch at 15,000, so the
    # first landing runs ahead over 2,499 boundaries in one step; the
    # chunk that lands at 15,000 restarts the train before the prefetch
    # starts, and the rest of the train runs ahead around its landing.
    tensors = {0: TensorDescriptor(0, 3 * 2**20, TensorKind.GLOBAL),
               1: TensorDescriptor(1, 8_192, TensorKind.GLOBAL)}
    kernels = (KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
               KernelRecord(1, "k1", 10, frozenset({1}), frozenset()))
    trace = WorkloadTrace(tensors=tensors, kernels=kernels)
    program = parse_program("G10 prefetch 1 8192 @15000\nKERNEL 0 k0 10\n"
                            "KERNEL 1 k1 10\n")
    dev = make_device(gpu_mem_bytes=4_000_000, fault_chunk_bytes=1_024,
                      fault_handling_us=0)
    result = simulate(make_context(trace, dev), program, policy="base-uvm",
                      initial_locations={0: "host", 1: "ssd"})
    events = result.log.splitlines()
    train = [f"{t} xfer_{step}" for t in range(6, 15_001, 6)
             for step in ("done fault t0",
                          "start fault t0 host/to_device 1024")]
    assert events[:3 + len(train) + 1] == [
        "0 iteration 0", "0 fault t0 kernel 0",
        "0 xfer_start fault t0 host/to_device 1024", *train,
        "15000 xfer_start prefetch t1 ssd/to_device 8192"]
    assert sum(" xfer_start fault t0 " in line for line in events) == 3_072
    assert (result.total_us, result.faults, result.stall_us) == (
        18_452, 1, 18_432)
    assert events[-2:] == ["18452 kernel_end 1", "18452 done"]
    # recorded before the event log was one list, hashed once
    assert len(events) == 6_153
    assert result.event_log_sha256 == (
        "f260f1227a512eda2d727e30c8d51aa85ea8f3818d565a99d24c275a74284218")


def test_run_ahead_waits_for_a_stale_stream_step():
    # kernel 1 faults t2 (host, ten 4 KiB chunks) and t3 (SSD), whose fault
    # parks; the LRU eviction of t0 covers t3's deficit. At 17 a prefetch
    # of t4 takes GPU bytes, so the step's deficit grows without a stream
    # advance. The chunk landing at 22 must re-run the blocked step, which
    # evicts t1 then, instead of running ahead to the next event at 29.
    sizes = {0: 57_344, 1: 8_192, 2: 40_960, 3: 88_064, 4: 28_672}
    tensors = {t: TensorDescriptor(t, s, TensorKind.GLOBAL)
               for t, s in sizes.items()}
    kernels = (KernelRecord(0, "k0", 10, frozenset({0, 1}), frozenset()),
               KernelRecord(1, "k1", 20, frozenset({2, 3}), frozenset()),
               KernelRecord(2, "k2", 10, frozenset({4}), frozenset()))
    trace = WorkloadTrace(tensors=tensors, kernels=kernels)
    program = parse_program("G10 prefetch 4 28672 @17\nKERNEL 0 k0 10\n"
                            "KERNEL 1 k1 20\nKERNEL 2 k2 10\n")
    dev = make_device(gpu_mem_bytes=137_216, fault_chunk_bytes=4_096,
                      fault_handling_us=0)
    result = simulate(make_context(trace, dev), program, policy="base-uvm",
                      initial_locations={0: "gpu", 1: "gpu", 2: "host",
                                         3: "ssd", 4: "ssd"})
    # recorded before fault-chunk trains ran ahead in closed form
    assert result.log.splitlines()[:19] == [
        "0 iteration 0",
        "0 kernel_start 0 iter 0",
        "10 kernel_end 0",
        "10 fault t2 kernel 1",
        "10 xfer_start fault t2 host/to_device 4096",
        "10 fault t3 kernel 1",
        "10 park fault t3",
        "10 lru_evict t0 cause wait",
        "10 xfer_start evict t0 host/from_device 57344",
        "16 xfer_done fault t2",
        "16 xfer_start fault t2 host/to_device 4096",
        "17 xfer_start prefetch t4 ssd/to_device 28672",
        "22 xfer_done fault t2",
        "22 xfer_start fault t2 host/to_device 4096",
        "22 lru_evict t1 cause wait",
        "28 xfer_done fault t2",
        "28 xfer_start fault t2 host/to_device 4096",
        "29 xfer_done evict t0",
        "29 xfer_start evict t1 host/from_device 8192",
    ]
    assert result.total_us == 267


class _ArmEveryLanding(_Engine):
    """The reference for quiet chunk landings: every landing of a fault
    chunk arms a stream advance."""

    def _run_train(self, lane, xfer):
        super()._run_train(lane, xfer)
        self._arm_advance(xfer.kind)


@pytest.mark.parametrize("due", [17, 22, 23])
def test_quiet_chunk_landings_arm_no_advance_and_change_nothing(due):
    # test_run_ahead_waits_for_a_stale_stream_step's scenario, with t4's
    # prefetch due between t2's chunk landings or, at 22, at the same
    # instant as one. That landing runs first and must still arm an
    # advance: the prefetch arms none, and it takes the GPU bytes whose
    # lack makes the blocked step evict t1 at once. Every run must equal
    # one where each landing arms an advance.
    sizes = {0: 57_344, 1: 8_192, 2: 40_960, 3: 88_064, 4: 28_672}
    trace = WorkloadTrace(
        tensors={t: TensorDescriptor(t, s, TensorKind.GLOBAL)
                 for t, s in sizes.items()},
        kernels=(KernelRecord(0, "k0", 10, frozenset({0, 1}), frozenset()),
                 KernelRecord(1, "k1", 20, frozenset({2, 3}), frozenset()),
                 KernelRecord(2, "k2", 10, frozenset({4}), frozenset())))
    program = parse_program(f"G10 prefetch 4 28672 @{due}\n"
                            "KERNEL 0 k0 10\nKERNEL 1 k1 20\nKERNEL 2 k2 10\n")
    dev = make_device(gpu_mem_bytes=137_216, fault_chunk_bytes=4_096,
                      fault_handling_us=0)
    engines = [engine(make_context(trace, dev), program, policy="base-uvm",
                      initial_locations={0: "gpu", 1: "gpu", 2: "host",
                                         3: "ssd", 4: "ssd"})
               for engine in (_Engine, _ArmEveryLanding)]
    runs = [engine.run() for engine in engines]
    assert runs[0] == runs[1]
    # the quiet landings pushed no advance
    assert engines[0]._seq < engines[1]._seq
    events = runs[0].log.splitlines()
    start = events.index(f"{due} xfer_start prefetch t4 ssd/to_device 28672")
    # at the first chunk landing at or after the prefetch (16, 22, 28)
    evict = next(line for line in events if " lru_evict t1 " in line)
    assert evict == f"{22 if due <= 22 else 28} lru_evict t1 cause wait"
    if due == 22:
        assert events[start - 2:start + 2] == [
            "22 xfer_done fault t2", "22 xfer_start fault t2 host/to_device "
            "4096", "22 xfer_start prefetch t4 ssd/to_device 28672", evict]


# recorded before a blocked step took its idle mark after its own run
_TRAIN_EVENTS = [
    "0 iteration 0", "0 kernel_start 0 iter 0", "10 kernel_end 0",
    "10 fault t1 kernel 1", "10 xfer_start fault t1 host/to_device 4096",
    *(f"{t} xfer_{step}" for t in (17, 24, 31, 38)
      for step in ("done fault t1", "start fault t1 host/to_device 4096")),
    "45 xfer_done fault t1", "45 kernel_start 1 iter 0", "55 kernel_end 1",
    "55 done"]


def test_fault_train_runs_ahead_from_its_first_landing(monkeypatch):
    # kernel 1 faults t1 (host, five 4 KiB chunks, 7 us each) and nothing
    # else is due. The fault moved the epoch in the blocked step's own run,
    # which is idle all the same, so the first landing at 17 runs ahead
    # over 24 and 31 to 38, where the last chunk starts.
    landings = []
    run_train = _Engine._run_train

    def spy(engine, lane, xfer):
        start = engine.now
        run_train(engine, lane, xfer)
        landings.append((start, engine.now, xfer.tail_bytes))

    monkeypatch.setattr(_Engine, "_run_train", spy)
    trace = WorkloadTrace(
        tensors={0: TensorDescriptor(0, 8_192, TensorKind.GLOBAL),
                 1: TensorDescriptor(1, 20_480, TensorKind.GLOBAL)},
        kernels=(KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
                 KernelRecord(1, "k1", 10, frozenset({0, 1}), frozenset())))
    program = parse_program("KERNEL 0 k0 10\nKERNEL 1 k1 10\n")
    dev = make_device(fault_chunk_bytes=4_096, fault_handling_us=1)
    result = simulate(make_context(trace, dev), program, policy="base-uvm",
                      initial_locations={0: "gpu", 1: "host"})
    assert landings == [(17, 38, 0)]
    assert result.log.splitlines() == _TRAIN_EVENTS


# recorded before a blocked alloc waited without re-running
_ALLOC_EVENTS = {
    None: ["0 iteration 0", "0 kernel_start 0 iter 0", "10 kernel_end 0",
           "10 lru_evict t0 cause alloc",
           "10 xfer_start evict t0 host/from_device 8192",
           "10 lru_evict t1 cause alloc", "17 xfer_done evict t0",
           "17 xfer_start evict t1 host/from_device 8192",
           "24 xfer_done evict t1", "24 alloc t2", "24 fault t3 kernel 1",
           "24 park fault t3", "24 lru_evict t4 cause wait",
           "24 xfer_start evict t4 host/from_device 4096",
           "30 xfer_done evict t4", "30 xfer_start fault t3 ssd/to_device 4096",
           "81 xfer_done fault t3", "81 kernel_start 1 iter 0",
           "91 kernel_end 1", "91 done"],
    12: ["0 iteration 0", "0 kernel_start 0 iter 0", "10 kernel_end 0",
         "10 lru_evict t0 cause alloc",
         "10 xfer_start evict t0 host/from_device 8192",
         "10 lru_evict t1 cause alloc", "12 park prefetch t3",
         "17 xfer_done evict t0",
         "17 xfer_start evict t1 host/from_device 8192",
         "17 xfer_start prefetch t3 ssd/to_device 4096",
         "17 lru_evict t4 cause alloc", "23 xfer_done prefetch t3",
         "24 xfer_done evict t1",
         "24 xfer_start evict t4 host/from_device 4096",
         "30 xfer_done evict t4", "30 alloc t2", "30 kernel_start 1 iter 0",
         "40 kernel_end 1", "40 done"]}


@pytest.mark.parametrize("due, advances", [(None, [0, 10, 24, 30, 81, 91]),
                                           (12, [0, 10, 17, 30, 40])])
def test_blocked_alloc_runs_again_only_when_it_can_act(monkeypatch, due,
                                                       advances):
    # the alloc of t2 (16 KiB) after k0 finds no free byte and evicts t0
    # and t1 by LRU; they land at 17 and 24. Alone, the landing at 17
    # leaves the deficit covered, so no stream advance runs until t2 fits
    # at 24. With t3's prefetch, parked at 12, the landing at 17 unparks it
    # and the outgoing bytes fall short: the alloc runs and evicts t4, then
    # waits through 23 and 24 until t4 lands at 30.
    times = []
    advance = _Engine._advance

    def spy(engine, cause):
        times.append(engine.now)
        advance(engine, cause)

    monkeypatch.setattr(_Engine, "_advance", spy)
    sizes = {0: 8_192, 1: 8_192, 2: 16_384, 3: 4_096, 4: 4_096}
    trace = WorkloadTrace(
        tensors={t: TensorDescriptor(t, size, TensorKind.INTERMEDIATE if t == 2
                                     else TensorKind.GLOBAL)
                 for t, size in sizes.items()},
        kernels=(KernelRecord(0, "k0", 10, frozenset({0, 1, 4}), frozenset()),
                 KernelRecord(1, "k1", 10, frozenset({3}), frozenset({2}))))
    program = parse_program(
        (f"G10 prefetch 3 4096 @{due}\n" if due else "")
        + "KERNEL 0 k0 10\nG10 alloc 2 16384 @10\nKERNEL 1 k1 10\n")
    result = simulate(make_context(trace, make_device(gpu_mem_bytes=20_480)),
                      program, initial_locations={0: "gpu", 1: "gpu",
                                                  4: "gpu", 3: "ssd"})
    assert result.log.splitlines() == _ALLOC_EVENTS[due]
    assert times == advances


def test_refault_after_a_pre_eviction_is_within_the_progress_bound():
    # k0 faults t0 and t1; t0 lands at 6, its pre-eviction at 8 takes it
    # out again while t1 is still moving, and k0 faults it a second time:
    # three faults for two tensors, which the one pre_evict allows
    trace = WorkloadTrace(
        tensors={0: TensorDescriptor(0, 4_096, TensorKind.GLOBAL),
                 1: TensorDescriptor(1, 40_960, TensorKind.GLOBAL)},
        kernels=(KernelRecord(0, "k0", 10, frozenset({0, 1}), frozenset()),))
    program = parse_program("G10 pre_evict 0 4096 host @8\nKERNEL 0 k0 10\n")
    dev = make_device(fault_handling_us=0)
    result = simulate(make_context(trace, dev), program, policy="base-uvm",
                      initial_locations={0: "host", 1: "ssd"})
    assert [tid for _, _, tid in result.fault_log] == [0, 1, 0]


def test_a_livelock_raises_instead_of_hanging(monkeypatch, s1_trace, device):
    # with the next kernel's tensors unpinned, kernel 1 faults t1 and t2
    # against each other: the LRU eviction each fault's room takes is the
    # other one, so neither the log nor the clock stops growing
    lru_evict = _Engine._lru_evict

    def unpinned(engine, deficit, cause):
        # a cursor past the stream's end pins no next kernel
        pos, engine.pos = engine.pos, len(engine.stream)
        try:
            lru_evict(engine, deficit, cause)
        finally:
            engine.pos = pos

    def hang(signum, frame):
        raise TimeoutError("the replay did not end")

    monkeypatch.setattr(_Engine, "_lru_evict", unpinned)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(SimulationError, match=(
                "^no progress: kernel 1 of iteration 0 faults more than the "
                "2 times its 2 tensors and the run's 0 pre-evictions allow$")):
            run_policy("base-uvm", s1_trace, device)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _equal_time_run(iterations, locations=()):
    """At 30 the prefetch of t5 lands and arms a stream advance, then k1
    ends and iteration 1 starts: k0 faults t0, whose fetch parks, and the
    LRU eviction of t1 covers the deficit. The prefetch of t4, issued at
    offset 0, pops next and takes GPU bytes; the advance, due at the same
    instant but armed before that trigger was pushed, pops after it and
    evicts t2 for the grown deficit."""
    sizes = {0: 16_384, 1: 8_192, 2: 8_192, 3: 8_192, 4: 4_096, 5: 16_384}
    trace = WorkloadTrace(
        tensors={t: TensorDescriptor(t, s, TensorKind.GLOBAL)
                 for t, s in sizes.items()},
        kernels=(KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
                 KernelRecord(1, "k1", 20, frozenset({3}), frozenset())))
    program = parse_program(
        "G10 prefetch 4 4096 @0\nKERNEL 0 k0 10\n"
        "G10 pre_evict 0 16384 host @10\nG10 pre_evict 4 4096 ssd @12\n"
        "G10 prefetch 5 16384 @21\nKERNEL 1 k1 20\n")
    dev = make_device(gpu_mem_bytes=49_152, num_iterations=iterations)
    starts = {0: "gpu", 1: "gpu", 2: "gpu", 3: "gpu", 4: "ssd", 5: "host",
              **dict(locations)}
    return simulate(make_context(trace, dev), program,
                    initial_locations=starts)


# recorded before stream advances were kept off the event heap
_EQUAL_TIME_EVENTS = [
    "0 iteration 0", "0 kernel_start 0 iter 0",
    "0 xfer_start prefetch t4 ssd/to_device 4096", "6 xfer_done prefetch t4",
    "10 defer pre_evict t0", "10 kernel_end 0",
    "10 xfer_start evict t0 host/from_device 16384", "10 kernel_start 1 iter 0",
    "12 xfer_start evict t4 ssd/from_device 4096", "18 xfer_done evict t4",
    "19 xfer_done evict t0", "21 xfer_start prefetch t5 host/to_device 16384",
    "30 xfer_done prefetch t5", "30 kernel_end 1", "30 iteration 1",
    "30 fault t0 kernel 0", "30 park fault t0", "30 lru_evict t1 cause wait",
    "30 xfer_start evict t1 host/from_device 8192",
    "30 xfer_start prefetch t4 ssd/to_device 4096",
    "30 lru_evict t2 cause wait", "36 xfer_done prefetch t4",
    "37 xfer_done evict t1", "37 park fault t0",
    "37 xfer_start evict t2 host/from_device 8192", "40 skip pre_evict t0",
    "42 xfer_start evict t4 ssd/from_device 4096", "44 xfer_done evict t2",
    "44 xfer_start fault t0 host/to_device 16384", "48 xfer_done evict t4",
    "51 skip prefetch t5", "98 xfer_done fault t0", "98 kernel_start 0 iter 1",
    "108 kernel_end 0", "108 kernel_start 1 iter 1", "128 kernel_end 1"]
_EQUAL_TIME_ITERATION_2 = [
    "128 iteration 2", "128 kernel_start 0 iter 2",
    "128 xfer_start prefetch t4 ssd/to_device 4096",
    "134 xfer_done prefetch t4", "138 defer pre_evict t0", "138 kernel_end 0",
    "138 xfer_start evict t0 host/from_device 16384",
    "138 kernel_start 1 iter 2", "140 xfer_start evict t4 ssd/from_device 4096",
    "146 xfer_done evict t4", "147 xfer_done evict t0", "149 skip prefetch t5",
    "158 kernel_end 1"]


def test_equal_time_events_keep_the_heap_order():
    # a lane completion, a kernel end, a trigger at issue offset 0 and an
    # armed stream advance, all at 30
    result = _equal_time_run(2)
    assert result.log.splitlines() == _EQUAL_TIME_EVENTS + ["128 done"]
    assert (result.total_us, result.stall_breakdown) == (128, {"fault": 68})


def test_steady_state_start_waits_for_an_armed_advance(monkeypatch):
    # three iterations: iteration 1 starts with nothing in flight but the
    # advance armed at 30, so it is no steady-state template
    starts = []
    fast_forward = _Engine._fast_forward

    def spy(engine):
        replayed = fast_forward(engine)
        starts.append((engine.iter_index, replayed, engine._mark is not None))
        return replayed

    monkeypatch.setattr(_Engine, "_fast_forward", spy)
    result = _equal_time_run(3)
    assert starts == [(1, False, False), (2, False, False)]
    assert result.log.splitlines() == (
        _EQUAL_TIME_EVENTS + _EQUAL_TIME_ITERATION_2 + ["158 done"])
    assert (result.total_us, result.stall_breakdown) == (158, {"fault": 68})


def test_locations_built_at_run_time_replay_alike():
    # the engine tests locations by identity, so it maps each given one
    # to the module's own string
    built = {0: "".join(["g", "pu"]), 4: "".join(["s", "sd"]),
             5: "".join(["ho", "st"])}
    assert all(loc is not GPU for loc in built.values())
    assert _equal_time_run(3, built) == _equal_time_run(3)
    with pytest.raises(ValueError, match="bad initial location 'tape'"):
        _equal_time_run(2, {1: "tape"})


def test_event_log_hashed_across_block_boundaries(monkeypatch):
    # base-uvm faults every tensor in page-sized chunks for 12 iterations:
    # 5,536 lines, once hashed in blocks of 1,024. Noise-free, the run
    # repeats from iteration 1 on and the engine replays it from iteration
    # 2; with noise it is simulated in full.
    trace = synthesize_trace(4, (20_000, 60_000), (8_000, 24_000), (20, 80),
                             14)
    dev = make_device(gpu_mem_bytes=117_760, host_mem_bytes=10_000_000,
                      fault_chunk_bytes=1_024, fault_handling_us=0,
                      num_iterations=12)
    replays = _watch_replays(monkeypatch)
    steady = run_policy("base-uvm", trace, dev)
    noisy = run_policy("base-uvm", trace, dev, noise_pct=0.1)
    assert replays == [2]
    for run in (steady, noisy):
        assert len(run.log.splitlines()) == 5_536
        assert hashlib.sha256(run.log.encode()).hexdigest() == (
            run.event_log_sha256)
    # recorded before the event log was hashed in blocks (the noise-free
    # run) and before steady iterations were replayed (the noisy one)
    assert steady.event_log_sha256 == (
        "da9524672709d3ec71a5402b26e76241ad233bd1c79c8745a4672192fda61e1c")
    assert noisy.event_log_sha256 == (
        "406a00794ab6fab8a17a10b8f6157086c6aebd5049d774318a1b0447b9374993")


_REPLAYED = ("base-uvm", "deepum-like", "flashneuron-like", "g10",
             "g10-ssd-only")


def _watch_replays(monkeypatch):
    """The iterations at which steady-state replays start, as they run."""
    replays = []
    replay = _Engine._replay

    def spy(engine, *args):
        replays.append(engine.iter_index)
        replay(engine, *args)

    monkeypatch.setattr(_Engine, "_replay", spy)
    return replays


def _fully_simulated(policy, trace, dev, **kwargs):
    """The run with no steady-state replay: every start is a new one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "_fast_forward", lambda engine: False)
        return run_policy(policy, trace, dev, **kwargs)


@settings(max_examples=12, deadline=None)
@given(layers=st.integers(2, 4), seed=st.integers(0, 10**6),
       fraction=st.floats(0.3, 1.0), iterations=st.integers(3, 8),
       noise=st.sampled_from([0.0, 0.0, 0.2]),
       chunk=st.sampled_from([1_024, 4_096]))
def test_steady_state_replay_matches_full_simulation(layers, seed, fraction,
                                                      iterations, noise,
                                                      chunk):
    trace = synthesize_trace(layers, (8_000, 30_000), (4_000, 12_000),
                             (20, 80), seed)
    padded = make_device().padded
    footprint = sum(padded(t.size_bytes) for t in trace.tensors.values())
    working = max(sum(padded(trace.tensors[tid].size_bytes)
                      for tid in k.tensors()) for k in trace.kernels)
    dev = make_device(gpu_mem_bytes=max(working, int(fraction * footprint)),
                      fault_chunk_bytes=chunk, fault_handling_us=1,
                      num_iterations=iterations)
    for policy in _REPLAYED:
        fast = run_policy(policy, trace, dev, noise_pct=noise, seed=seed)
        assert fast == _fully_simulated(policy, trace, dev, noise_pct=noise,
                                        seed=seed)


def test_no_steady_state_replay_with_a_transfer_in_flight(monkeypatch):
    # w0 goes out during k1 and its prefetch, held until the eviction
    # lands, is still moving when every iteration ends. Iterations 1 and 2
    # start with the same locations, uses and gap, but the prefetch lands
    # 6 us into iteration 1 and 4 us into iteration 2.
    tensors = {t: TensorDescriptor(t, 8_192, TensorKind.GLOBAL)
               for t in (0, 1)}
    kernels = (KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
               KernelRecord(1, "k1", 10, frozenset({1}), frozenset()))
    trace = WorkloadTrace(tensors=tensors, kernels=kernels)
    program = parse_program("G10 pre_evict 0 8192 host @12\nKERNEL 0 k0 10\n"
                            "G10 prefetch 0 8192 @18\nKERNEL 1 k1 10\n")
    dev = make_device(num_iterations=6)
    starts = {0: "gpu", 1: "gpu"}
    replays = _watch_replays(monkeypatch)
    context = make_context(trace, dev)
    fast = simulate(context, program, initial_locations=starts)
    monkeypatch.setattr(_Engine, "_fast_forward", lambda engine: False)
    full = simulate(context, program, initial_locations=starts)
    assert replays == []
    assert fast == full
    events = fast.log.splitlines()
    assert "20 iteration 1" in events
    assert "26 xfer_done prefetch t0" in events
    assert "50 xfer_done prefetch t0" in events


def test_planned_host_eviction_falls_back_to_flash_then_fails():
    # w0's planned host eviction goes to host memory while it has room, to
    # flash once w2 fills host memory, and nowhere once w3 fills flash too
    tensors = {t: TensorDescriptor(t, 8_192, TensorKind.GLOBAL)
               for t in range(4)}
    kernels = (KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
               KernelRecord(1, "k1", 10, frozenset({1}), frozenset()))
    trace = WorkloadTrace(tensors=tensors, kernels=kernels)
    program = parse_program("G10 pre_evict 0 8192 host @12\nKERNEL 0 k0 10\n"
                            "G10 prefetch 0 8192 @18\nKERNEL 1 k1 10\n")
    starts = {0: "gpu", 1: "gpu", 2: "host", 3: "ssd"}

    def evictions(**device):
        result = simulate(make_context(trace, make_device(**device)),
                          program, initial_locations=starts)
        t = result.traffic
        return ([line for line in result.log.splitlines()
                 if "xfer_start evict" in line],
                (t.ssd_write, t.host_out))

    assert evictions() == (["12 xfer_start evict t0 host/from_device 8192"],
                           (0, 8_192))
    assert evictions(host_mem_bytes=8_192) == (
        ["12 xfer_start evict t0 ssd/from_device 8192"], (8_192, 0))
    with pytest.raises(SimulationError,
                       match="^no tier can hold the evicted tensor$"):
        evictions(host_mem_bytes=8_192, ssd_capacity_bytes=8_192)


def test_steady_state_waits_for_the_same_gap_after_the_last_kernel(
        monkeypatch):
    # iteration 0 faults w0 in, so t1's pre-eviction finds it unborn; from
    # iteration 1 on it is deferred past k1, and the free of t1 waits 7 us
    # for it to land. Iterations 1 and 2 start with the same tensor state
    # but 0 and 7 us after the last kernel ended, so iteration 2 is not a
    # copy of iteration 1: its first kernel stalls 7 us.
    tensors = {0: TensorDescriptor(0, 8_192, TensorKind.GLOBAL),
               1: TensorDescriptor(1, 8_192, TensorKind.INTERMEDIATE)}
    kernels = (KernelRecord(0, "k0", 10, frozenset({0}), frozenset()),
               KernelRecord(1, "k1", 10, frozenset(), frozenset({1})))
    trace = WorkloadTrace(tensors=tensors, kernels=kernels)
    program = parse_program(
        "KERNEL 0 k0 10\nG10 alloc 1 8192 @10\n"
        "G10 pre_evict 1 8192 host @15\nKERNEL 1 k1 10\n"
        "G10 free 1 8192 @20\n")
    dev = make_device(num_iterations=5, fault_handling_us=1)
    starts = {0: "host"}
    replays = _watch_replays(monkeypatch)
    context = make_context(trace, dev)
    fast = simulate(context, program, policy="base-uvm",
                    initial_locations=starts)
    monkeypatch.setattr(_Engine, "_fast_forward", lambda engine: False)
    full = simulate(context, program, policy="base-uvm",
                    initial_locations=starts)
    assert replays == [3]
    assert fast == full
    assert [k.stall_us for k in fast.kernels] == [8, 0, 0, 0, 7, 0, 7, 0, 7, 0]
    # the last iteration's 7 us wait for the free delays no kernel
    assert fast.stall_breakdown == {"fault": 8, "free": 21}
    assert sum(fast.stall_breakdown.values()) == fast.stall_us
    assert fast.log.splitlines()[-3:] == [
        "136 xfer_done evict t1", "136 free t1", "136 done"]
