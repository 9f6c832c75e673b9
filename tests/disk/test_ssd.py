"""Unit tests for the FTL-based SSD backend: conservation, GC, cache."""

import pytest

from repro.disk import BlockRequest, IoOp, SsdDevice, SsdParameters
from repro.iosched import NoopScheduler
from repro.sim import Environment


#: Tiny geometry so a synthetic workload can fill and churn the FTL.
SMALL = SsdParameters(
    pages_per_block=4,
    channels=2,
    write_cache_pages=8,
    writeback_delay=0.001,
    gc_min_invalid=2,
)


def make_ssd(env, params=SMALL, **kwargs):
    return SsdDevice(env, NoopScheduler(), params, **kwargs)


def write(lba, n=8, pid="p"):
    return BlockRequest(lba, n, IoOp.WRITE, pid)


def read(lba, n=8, pid="p"):
    return BlockRequest(lba, n, IoOp.READ, pid)


def run_all(env, dev, requests):
    events = [dev.submit(r) for r in requests]
    for ev in events:
        env.run(until=ev)
    # Let the delayed writeback drain the cache completely.
    env.run(until=env.now + 10 * dev.params.writeback_delay + 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SsdParameters(pages_per_block=0)
    with pytest.raises(ValueError):
        SsdParameters(channels=0)
    with pytest.raises(ValueError):
        SsdParameters(write_cache_pages=-1)
    # A negative or non-finite timing would book NAND ops in the past
    # (or never); zero is a legal idealised device.
    for field in ("read_latency", "program_latency", "erase_latency",
                  "cache_read_latency", "cache_write_latency",
                  "writeback_delay"):
        for bad in (-1e-6, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=field):
                SsdParameters(**{field: bad})
        SsdParameters(**{field: 0.0})


def test_sequential_writes_conserved_and_wa_one():
    """Append-only writes: every logical page lands exactly once."""
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(i * 8) for i in range(64)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["kind"] == "ssd"
    # No overwrites -> nothing for GC to reclaim -> no amplification.
    assert stats["write_amp"] == pytest.approx(1.0)
    assert stats["nand_erases"] == 0
    assert stats["host_pages"] == stats["nand_programs"]


def test_overwrite_churn_forces_gc_and_wa_above_one():
    """Overwriting a hot set invalidates pages until greedy GC fires."""
    env = Environment()
    dev = make_ssd(env)
    # 16 logical extents overwritten across 16 rounds, with the write
    # cache drained between rounds so every overwrite reaches NAND and
    # invalidates the previous on-flash copy (a single burst would
    # coalesce in cache and never amplify).
    for _ in range(16):
        run_all(env, dev, [write(i * 8) for i in range(16)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["gc_cycles"] > 0
    assert stats["nand_erases"] >= stats["gc_cycles"]
    assert stats["write_amp"] >= 1.0
    # Conservation: programs account for every host flush plus every
    # GC relocation, nothing else.
    assert stats["nand_programs"] == \
        stats["host_pages"] + stats["gc_moved_pages"]


def test_write_amp_never_below_one_under_coalescing():
    """Back-to-back overwrites coalesce in cache, but WA stays >= 1."""
    env = Environment()
    dev = make_ssd(env)
    # Same extent hammered while still dirty in cache: the cache
    # absorbs the repeats, so host_pages counts flushes, not submits.
    run_all(env, dev, [write(0) for _ in range(32)])
    dev.check_conservation()
    stats = dev.storage_stats()
    assert stats["cache_coalesced"] > 0
    assert stats["write_amp"] >= 1.0


def test_read_after_write_hits_dirty_cache():
    env = Environment()
    dev = make_ssd(env)
    done = dev.submit(write(0))
    env.run(until=done)
    done = dev.submit(read(0))
    env.run(until=done)
    assert dev.storage_stats()["cache_read_hits"] > 0


def test_reads_complete_and_charge_channels():
    env = Environment()
    dev = make_ssd(env)
    run_all(env, dev, [write(i * 8) for i in range(16)])
    events = [dev.submit(read(i * 8)) for i in range(16)]
    for ev in events:
        env.run(until=ev)
    assert all(ev.triggered for ev in events)
    # Contiguous reads may merge in the elevator, but every NAND page
    # still gets charged on its channel.
    assert dev.storage_stats()["nand_reads"] >= 16


def test_service_scale_slows_ssd():
    """The fault knob stretches flash service like it does a spindle."""
    def run_with(scale):
        env = Environment()
        dev = make_ssd(env)
        dev.service_scale = scale
        done = dev.submit(write(0))
        env.run(until=done)
        return env.now

    assert run_with(4.0) > run_with(1.0)


def test_trace_topics_published():
    """ssd.* topics fire on churn (registry half lives in obs.topics)."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    seen = []
    for topic in ("ssd.gc", "ssd.writeback", "ssd.channel"):
        bus.subscribe(topic, lambda r: seen.append(r.topic))
    dev = make_ssd(env, trace=bus)
    for _ in range(16):
        run_all(env, dev, [write(i * 8) for i in range(16)])
    assert {"ssd.gc", "ssd.writeback", "ssd.channel"} <= set(seen)


# -- exact channel timing ---------------------------------------------------------------
#
# The NAND channels are FIFO servers: an op starts when its channel
# frees up and takes its latency times the ``service_scale`` in force
# when it starts.  These tests pin completion instants exactly (float
# equality, built with the same additions the device performs).

R = SMALL.read_latency
P = SMALL.program_latency
#: The writeback flush of a burst submitted at t=0 lands here.
FLUSH = SMALL.writeback_delay


def read_page(lpn):
    """One-page read; an unmapped lpn lives on channel lpn % channels."""
    return read(lpn * SMALL.page_bytes // 512, SMALL.page_bytes // 512)


def flush_one_block():
    """Write a block's worth of pages at t=0; they flush at FLUSH onto
    block 0 (channel 0) as a FIFO of 4 programs.  Returns (env, dev)."""
    env = Environment()
    dev = make_ssd(env)
    dev.submit(write(0, 4 * SMALL.page_bytes // 512))
    env.run(until=FLUSH + P / 2)
    assert dev.storage_stats()["nand_programs"] == 4
    return env, dev


def test_reads_on_one_channel_serialise():
    env = Environment()
    dev = make_ssd(env)
    reqs = [read_page(0), read_page(2)]  # both channel 0, not adjacent
    for ev in [dev.submit(r) for r in reqs]:
        env.run(until=ev)
    assert [r.complete_time for r in reqs] == [R, R + R]


def test_reads_on_two_channels_overlap():
    env = Environment()
    dev = make_ssd(env)
    reqs = [read_page(0), read_page(3)]  # channels 0 and 1
    for ev in [dev.submit(r) for r in reqs]:
        env.run(until=ev)
    assert [r.complete_time for r in reqs] == [R, R]


def test_read_waits_behind_flushed_programs():
    env, dev = flush_one_block()
    req = read_page(0)  # mapped to block 0 -> channel 0
    env.run(until=dev.submit(req))
    assert req.complete_time == FLUSH + P + P + P + P + R


def test_service_scale_applies_to_ops_started_after_the_change():
    env, dev = flush_one_block()
    # Mid-way through the first program: it keeps its 1x finish, the
    # three queued behind it start later and run 4x.
    dev.service_scale = 4.0
    req = read_page(0)
    env.run(until=dev.submit(req))
    assert req.complete_time == \
        FLUSH + P + P * 4.0 + P * 4.0 + P * 4.0 + R * 4.0


def test_service_scale_change_retimes_a_waiting_read():
    env, dev = flush_one_block()
    req = read_page(0)
    done = dev.submit(req)
    env.run(until=FLUSH + 3 * P / 4)  # read queued behind 3 programs
    dev.service_scale = 4.0
    # Program 2 starts at FLUSH + P under 4x; drop back to 1x while it
    # runs, so programs 3-4 and the read start at 1x again.
    env.run(until=FLUSH + 3 * P)
    dev.service_scale = 1.0
    env.run(until=done)
    assert req.complete_time == FLUSH + P + P * 4.0 + P + P + R


def test_channel_depth_sequence():
    """``ssd.channel`` depth = ops booked and not yet started."""
    from repro.sim import TraceBus

    env = Environment()
    bus = TraceBus()
    seen = []
    bus.subscribe("ssd.channel",
                  lambda r: seen.append((r.time, r.payload["channel"],
                                         r.payload["depth"])))
    dev = make_ssd(env, trace=bus)
    # 8 pages flush at FLUSH onto blocks 0 (channel 0) and 1 (channel 1).
    dev.submit(write(0, 8 * SMALL.page_bytes // 512))
    env.run(until=FLUSH + P / 2)
    # One read per channel while the first program of each runs.
    t_read = env.now
    for ev in [dev.submit(read_page(0)), dev.submit(read_page(4))]:
        env.run(until=ev)
    # Once both channels drain, a lone read queues behind nothing.
    env.run(until=env.now + 1.0)
    t_idle = env.now
    env.run(until=dev.submit(read_page(1)))
    assert seen == (
        [(FLUSH, 0, d) for d in (1, 2, 3, 4)]
        + [(FLUSH, 1, d) for d in (1, 2, 3, 4)]
        + [(t_read, 0, 4), (t_read, 1, 4), (t_idle, 0, 1)]
    )
