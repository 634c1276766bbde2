"""Set-batched SADAE training: equivalence with the per-set ELBO reference.

The contract under test (see :meth:`repro.core.sadae.SADAE.elbo_batch`):
stacking K equal-cardinality state-action sets into one encoder/decoder
forward yields per-set ELBOs — and hence ``train_sadae`` losses —
*bit-identical* to evaluating :meth:`~repro.core.sadae.SADAE.elbo` set by
set with the same generator, because the υ-noise is drawn per set in set
order and every row's arithmetic is batch-length independent.
``train_sadae`` steps only through ``elbo_batch``; :func:`reference_train_sadae`
below is the same loop with one ``elbo`` call per set.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import SADAE, SADAEConfig, train_sadae


def gaussian_sets(num_sets=12, n=40, dim=2, action_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(num_sets):
        mean = rng.uniform(-2, 2, size=dim)
        sets.append(
            (rng.normal(mean, 1.0, size=(n, dim)), rng.normal(0, 1, size=(n, action_dim)))
        )
    return sets


def make_sadae(state_only=False, seed=0):
    return SADAE(
        2,
        1,
        SADAEConfig(
            latent_dim=4,
            encoder_hidden=(32, 32),
            decoder_hidden=(32, 32),
            learning_rate=3e-3,
            weight_decay=1e-5,
            state_only=state_only,
            seed=seed,
        ),
    )


def reference_train_sadae(sadae, sets, epochs, rng, sets_per_step=8):
    """:func:`train_sadae` with one :meth:`SADAE.elbo` call per set."""
    sadae.fit_normalizer(sets)
    optimizer = nn.Adam(
        sadae.parameters(),
        lr=sadae.config.learning_rate,
        weight_decay=sadae.config.weight_decay,
    )
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(sets))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), sets_per_step):
            batch_ids = order[start : start + sets_per_step]
            optimizer.zero_grad()
            total = None
            for set_id in batch_ids:
                states, actions = sets[set_id]
                value = -sadae.elbo(states, actions, rng)
                total = value if total is None else total + value
            loss = total * (1.0 / len(batch_ids))
            loss.backward()
            nn.clip_grad_norm(sadae.parameters(), 10.0)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
    return losses


class TestElboBatchEquivalence:
    @pytest.mark.parametrize("state_only", [False, True])
    def test_per_set_elbos_bit_identical(self, state_only):
        sadae = make_sadae(state_only=state_only)
        sets = gaussian_sets(num_sets=6)
        if state_only:
            sets = [(s, None) for s, _ in sets]
        sadae.fit_normalizer(sets)
        # Sequential pass: one shared generator advanced set by set.
        rng = np.random.default_rng(3)
        sequential = [sadae.elbo(s, a, rng).item() for s, a in sets]
        batched = [v.item() for v in sadae.elbo_batch(sets, np.random.default_rng(3))]
        assert sequential == batched

    def test_gradients_flow_through_batched_path(self):
        sadae = make_sadae()
        sets = gaussian_sets(num_sets=4)
        sadae.fit_normalizer(sets)
        elbos = sadae.elbo_batch(sets, np.random.default_rng(0))
        total = elbos[0]
        for value in elbos[1:]:
            total = total + value
        (-total).backward()
        assert sadae.encoder.layers[0].weight.grad is not None
        assert sadae.state_decoder.layers[0].weight.grad is not None
        assert sadae.action_decoder.layers[0].weight.grad is not None

    def test_unequal_cardinality_rejected(self):
        sadae = make_sadae()
        sets = gaussian_sets(num_sets=2)
        short = (sets[1][0][:10], sets[1][1][:10])
        with pytest.raises(ValueError, match="equal-cardinality"):
            sadae.elbo_batch([sets[0], short], np.random.default_rng(0))

    def test_missing_actions_rejected(self):
        sadae = make_sadae()
        sets = gaussian_sets(num_sets=2)
        with pytest.raises(ValueError, match="actions required"):
            sadae.elbo_batch([sets[0], (sets[1][0], None)], np.random.default_rng(0))

    def test_empty_batch(self):
        sadae = make_sadae()
        assert sadae.elbo_batch([], np.random.default_rng(0)) == []


class TestTrainSadaeBatched:
    def test_equal_cardinality_losses_match(self):
        """The acceptance case: stacked epochs reproduce the per-set
        reference on an equal-cardinality corpus to ≤1e-10. Each step's
        loss is bit-identical given identical parameters (see
        ``test_per_set_elbos_bit_identical``); across optimizer steps the
        backward pass sums gradients in a different order, so parameters —
        and hence later losses — drift at the last ulp."""
        sets = gaussian_sets(num_sets=16)
        ref_losses = reference_train_sadae(
            make_sadae(), sets, epochs=4, rng=np.random.default_rng(5)
        )
        bat_losses = train_sadae(make_sadae(), sets, epochs=4, rng=np.random.default_rng(5))
        np.testing.assert_allclose(ref_losses, bat_losses, rtol=1e-10, atol=1e-10)

    def test_all_distinct_cardinalities_bit_identical(self, monkeypatch):
        """Every group holds one set and still goes through ``elbo_batch``
        (``SADAE.elbo`` is never called); a fully ragged corpus reproduces
        the per-set losses exactly."""
        rng = np.random.default_rng(1)
        sets = [
            (rng.normal(0, 1, (n, 2)), rng.normal(0, 1, (n, 1)))
            for n in (10, 20, 30, 40)
        ]
        ref_losses = reference_train_sadae(
            make_sadae(), sets, epochs=3, rng=np.random.default_rng(6), sets_per_step=4
        )

        def forbidden(*args):
            raise AssertionError("train_sadae evaluated through the per-set reference")

        with monkeypatch.context() as patch:
            patch.setattr(SADAE, "elbo", forbidden)
            bat_losses = train_sadae(
                make_sadae(), sets, epochs=3, rng=np.random.default_rng(6), sets_per_step=4
            )
        assert ref_losses == bat_losses

    def test_mixed_cardinalities_train(self):
        """Ragged corpora group by set size; training still converges.

        No reference comparison: a ragged step draws υ group by group,
        not in the per-set order."""
        rng = np.random.default_rng(2)
        sets = []
        for n in (25, 25, 25, 40, 40, 40, 40):
            mean = rng.uniform(-2, 2, 2)
            sets.append((rng.normal(mean, 1.0, (n, 2)), rng.normal(0, 1, (n, 1))))
        losses = train_sadae(make_sadae(), sets, epochs=15, rng=np.random.default_rng(7))
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_state_only_batched(self):
        sets = [(s, None) for s, _ in gaussian_sets(num_sets=8)]
        ref_losses = reference_train_sadae(
            make_sadae(state_only=True), sets, epochs=3, rng=np.random.default_rng(8)
        )
        bat_losses = train_sadae(
            make_sadae(state_only=True), sets, epochs=3, rng=np.random.default_rng(8)
        )
        np.testing.assert_allclose(ref_losses, bat_losses, rtol=1e-10, atol=1e-10)
