"""Monte Carlo matrix rows on common random numbers.

Every direct row of a Monte Carlo matrix is seeded with one seed and
decided on the same stream words (mc_engine.simulate_rows). Each row must
still be exactly what its provenance token promises,
simulate_batch(Coherent(mu), ..., seed) for its recorded seed, at any chunk
size and worker count; rows with independent gates must be ordered shot by
shot; and every row must keep its own law.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import binflux.mc_engine as mc_engine
from binflux import (
    Coherent,
    Fock,
    MechanisticUndershoot,
    build_matrix,
    get_preset,
    simulate_batch,
    total_variation,
)
from binflux.exact_oracle import coherent_click_rows
from binflux.mc_engine import simulate_rows


def _mechanistic(name):
    system = get_preset(name)
    detector = dataclasses.replace(system.detector, undershoot=MechanisticUndershoot(0.3))
    return dataclasses.replace(system, name=f"{name}-mechanistic", detector=detector)


SYSTEMS = {
    "rapid32": lambda: get_preset("rapid32"),
    "rapid32-mechanistic": lambda: _mechanistic("rapid32"),
    "conventional16": lambda: get_preset("conventional16"),
    "conventional16-mechanistic": lambda: _mechanistic("conventional16"),
}
INDEPENDENT = ("rapid32", "conventional16")


def _lanes(system):
    return mc_engine._Kernel(Coherent(0.0), system.bin_weights(), system.detector).lanes


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [7, 400], ids=["chunk7", "chunk400"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_row_is_simulate_batch_of_its_provenance_seed(simulate_in_chunks, name, chunk, workers):
    # The matrix and the shared rows' per-shot totals come from one chunk size and worker
    # count, each reference row alone from another chunk size on one worker; 1000 shots
    # leave a part chunk at both sizes.
    system = SYSTEMS[name]()
    weights, mus = system.bin_weights(), range(13)
    with mock.patch.object(mc_engine, "_CHUNK_LANES", chunk * _lanes(system)):
        m = build_matrix(system, 12, "mc", n_shots=1000, seed=23, workers=workers)
        seed = m.provenance[0].seed
        shared = simulate_rows(
            [Coherent(float(mu)) for mu in mus], weights, system.detector, 1000, seed,
            workers=workers, store_totals=True,
        )
    for mu, prov in zip(mus, m.provenance):
        assert prov.token() == f"mc4:1000:{seed}"
        ref = simulate_in_chunks(
            407 - chunk, Coherent(float(mu)), weights, system.detector, 1000, seed, workers=1, store_totals=True
        )
        assert m.rows[mu].tobytes() == ref.distribution.tobytes(), f"row {mu}"
        assert np.array_equal(shared[mu].click_totals, ref.click_totals), f"row {mu}"


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_mc_matrix_on_half_the_grid_is_the_head_of_the_full_one(name):
    system = SYSTEMS[name]()
    narrow = build_matrix(system, 15, "mc", n_shots=500, seed=8, workers=1)
    wide = build_matrix(system, 30, "mc", n_shots=500, seed=8, workers=1)
    assert narrow.rows.tobytes() == wide.rows[:16].tobytes()
    assert narrow.provenance == wide.provenance[:16]


@pytest.mark.parametrize("name", INDEPENDENT)
def test_independent_gate_totals_do_not_fall_as_mu_rises(name):
    # On shared words a gate's no-click threshold only falls as mu rises, so with
    # independent gates every shot that clicks at mu clicks at least as often at mu + 1.
    system = SYSTEMS[name]()
    mus = range(0, 61)
    batches = simulate_rows(
        [Coherent(float(mu)) for mu in mus], system.bin_weights(), system.detector, 3000, 4, store_totals=True
    )
    totals = np.stack([b.click_totals for b in batches])
    assert np.all(np.diff(totals, axis=0) >= 0)
    assert totals[0].sum() < totals[-1].sum()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_shared_words_row_keeps_its_law(name):
    # TV <= sqrt((B + 1) / N) from the exact row, N shots per row.
    system = SYSTEMS[name]()
    weights, n = system.bin_weights(), 20_000
    m = build_matrix(system, 40, "mc", n_shots=n, seed=6, workers=1)
    exact = coherent_click_rows(range(41), weights, system.detector)
    bound = math.sqrt((weights.num_bins + 1) / n)
    for mu in range(41):
        assert total_variation(m.rows[mu], exact[mu]) <= bound, f"row {mu}"


def test_each_chunk_draws_its_words_once_for_every_row(monkeypatch):
    system = get_preset("rapid32")
    calls = []
    draw = mc_engine.uniform_lanes

    def counting(*args):
        calls.append(args[1:])
        return draw(*args)

    monkeypatch.setattr(mc_engine, "uniform_lanes", counting)
    monkeypatch.setattr(mc_engine, "_CHUNK_LANES", 100 * _lanes(system))
    rows = simulate_rows([Coherent(float(mu)) for mu in range(9)], system.bin_weights(), system.detector, 450, 3)
    assert [c[:2] for c in calls] == [(0, 100), (100, 100), (200, 100), (300, 100), (400, 50)]
    assert [r.n_shots for r in rows] == [450] * 9


def test_rows_of_different_lane_layouts_are_refused():
    system = get_preset("rapid32")
    weights = system.bin_weights()
    with pytest.raises(ValueError, match="one lane layout"):
        simulate_rows([Coherent(1.0), Fock(3)], weights, system.detector, 10, 1)
    with pytest.raises(ValueError, match="at least one"):
        simulate_rows([], weights, system.detector, 10, 1)


def test_shared_fock_rows_equal_their_own_batches():
    # Fock sources of one photon number share a layout too; photon sums stay per row.
    system = get_preset("rapid32")
    weights = system.bin_weights()
    detectors = [system.detector, _mechanistic("rapid32").detector]
    for detector in detectors:
        rows = simulate_rows([Fock(20), Fock(20)], weights, detector, 700, 12, start_shot=3, store_totals=True)
        ref = simulate_batch(Fock(20), weights, detector, 700, 12, start_shot=3, store_totals=True)
        for row in rows:
            assert np.array_equal(row.click_totals, ref.click_totals)
            assert np.array_equal(row.photon_sum, ref.photon_sum)
