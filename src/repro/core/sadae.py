"""SADAE — the State-Action Distributional variational AutoEncoder.

Sec. IV-B of the paper: a group's state-action set
``X_t^g = {(s_i, a_{i,t-1})}_{i=1..N}`` is embedded into a latent vector υ
that summarises the *distribution* the set was drawn from. Generative story
(Fig. 1): υ ~ p(υ); ψ ~ p_θ(ψ | υ); each (s, a) ~ p_ψ(s, a) i.i.d.

Inference uses the factorised posterior of Eq. (6):

    q_κ(υ | X) = Π_i q_κ(υ | s_i, a_i)

— a product of per-sample Gaussian factors with the closed form of
:func:`repro.nn.product_of_gaussians` [52]. Training maximises the
tractable ELBO of Theorem 4.1:

    E_q [ Σ_i log p_θ(s_i | υ) + log p_θ(a_i | υ, s_i) ] − KL(q(υ|X) ‖ p(υ))

with p(υ) = N(0, I), Gaussian decoders, and the reparameterisation trick.

In the LTS experiments the group information lives in the states only, so
``state_only=True`` drops the action factor (the paper reconstructs the
state distribution there); DPR uses the full state-action form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..rl.ppo import TrainingDiverged
from ..utils.seeding import make_rng

StateActionSet = Tuple[np.ndarray, np.ndarray]


@dataclass
class SADAEConfig:
    """SADAE hyper-parameters (paper values in Table II)."""

    latent_dim: int = 8
    encoder_hidden: Tuple[int, ...] = (64, 64)
    decoder_hidden: Tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    state_only: bool = False
    seed: Optional[int] = None


class SADAE(nn.Module):
    """Encoder q_κ(υ | X) and decoders p_θ(ψ_s | υ), p_θ(ψ_a | υ, s)."""

    def __init__(self, state_dim: int, action_dim: int, config: SADAEConfig):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config
        rng = make_rng(config.seed)
        latent = config.latent_dim
        enc_in = state_dim if config.state_only else state_dim + action_dim
        # Encoder emits per-sample Gaussian factor parameters (μ_i, log σ_i).
        self.encoder = nn.MLP(
            [enc_in, *config.encoder_hidden, 2 * latent], rng, activation="tanh"
        )
        # State decoder: υ → parameters ψ_s of the state distribution.
        self.state_decoder = nn.MLP(
            [latent, *config.decoder_hidden, 2 * state_dim], rng, activation="tanh"
        )
        if not config.state_only:
            self.action_decoder = nn.MLP(
                [latent + state_dim, *config.decoder_hidden, 2 * action_dim],
                rng,
                activation="tanh",
            )
        else:
            self.action_decoder = None
        self.input_mean = np.zeros(enc_in)
        self.input_std = np.ones(enc_in)
        self.state_mean = np.zeros(state_dim)
        self.state_std = np.ones(state_dim)
        self.action_mean = np.zeros(action_dim)
        self.action_std = np.ones(action_dim)

    # ------------------------------------------------------------------
    # normalisation
    # ------------------------------------------------------------------
    def fit_normalizer(self, sets: Sequence[StateActionSet]) -> None:
        """Freeze input/target standardisation from a collection of X sets."""
        states = np.concatenate([s for s, _ in sets], axis=0)
        self.state_mean = states.mean(axis=0)
        self.state_std = states.std(axis=0) + 1e-6
        if self.config.state_only:
            self.input_mean, self.input_std = self.state_mean, self.state_std
            return
        actions = np.concatenate([a for _, a in sets], axis=0)
        self.action_mean = actions.mean(axis=0)
        self.action_std = actions.std(axis=0) + 1e-6
        self.input_mean = np.concatenate([self.state_mean, self.action_mean])
        self.input_std = np.concatenate([self.state_std, self.action_std])

    def normalizer_state(self) -> dict:
        """The standardisation statistics (not Parameters, so not covered by
        ``save_module``); persist alongside the weight checkpoint."""
        return {
            "input_mean": self.input_mean.copy(),
            "input_std": self.input_std.copy(),
            "state_mean": self.state_mean.copy(),
            "state_std": self.state_std.copy(),
            "action_mean": self.action_mean.copy(),
            "action_std": self.action_std.copy(),
        }

    def load_normalizer_state(self, state: dict) -> None:
        for key, value in self.normalizer_state().items():
            incoming = np.asarray(state[key], dtype=np.float64)
            if incoming.shape != value.shape:
                raise ValueError(f"normalizer shape mismatch for {key}")
            setattr(self, key, incoming.copy())

    def _encoder_input(self, states: np.ndarray, actions: Optional[np.ndarray]) -> np.ndarray:
        if self.config.state_only:
            raw = np.asarray(states, dtype=np.float64)
        else:
            raw = np.concatenate([states, actions], axis=-1)
        return (raw - self.input_mean) / self.input_std

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def posterior(self, states: np.ndarray, actions: Optional[np.ndarray] = None) -> nn.DiagGaussian:
        """q_κ(υ | X): product of per-sample factors (Eq. 6), differentiable.

        ``[N, d]`` inputs give one set's posterior (``[latent]``
        parameters). ``[K, N, d]`` inputs stack K equal-cardinality sets:
        one encoder forward over the K·N rows and one product over axis
        −2 give ``[K, latent]`` parameters whose row k is bit-identical
        to the posterior of set k alone (encoder rows are batch-length
        independent, and an axis −2 sum adds each set's rows in the same
        order as a lone set's axis-0 sum).
        """
        inputs = self._encoder_input(states, actions)
        encoded = self.encoder(nn.Tensor(inputs.reshape(-1, inputs.shape[-1])))
        if inputs.ndim == 3:
            encoded = encoded.reshape(*inputs.shape[:2], -1)
        latent = self.config.latent_dim
        means = encoded[..., :latent]
        log_stds = encoded[..., latent:]
        return nn.product_of_gaussians(means, log_stds, axis=-2)

    def embed(self, states: np.ndarray, actions: Optional[np.ndarray] = None) -> np.ndarray:
        """Posterior mean embedding υ (no gradients; used during rollouts)."""
        with nn.no_grad():
            return self.posterior(states, actions).mean.data.copy()

    def embed_tensor(
        self,
        states: np.ndarray,
        actions: Optional[np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> nn.Tensor:
        """Differentiable embedding for the Eq. (4) gradient path.

        With ``rng`` the embedding is a reparameterised sample; without it
        the posterior mean is used (deterministic but still differentiable).
        A ``[K, N, d]`` stack of sets (see :meth:`posterior`) embeds to
        ``[K, latent]`` with one ``(K, latent)`` draw, which consumes
        ``rng`` exactly as K successive per-set calls would: rows, and
        the generator's end state, are bit-identical to that loop.
        """
        posterior = self.posterior(states, actions)
        if rng is None:
            return posterior.mean
        return posterior.rsample(rng)

    # ------------------------------------------------------------------
    # learning (Theorem 4.1)
    # ------------------------------------------------------------------
    def elbo(
        self,
        states: np.ndarray,
        actions: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> nn.Tensor:
        """Per-sample-normalised ELBO of one state-action set X."""
        n = states.shape[0]
        posterior = self.posterior(states, actions)
        upsilon = posterior.rsample(rng)

        decoded_s = self.state_decoder(upsilon.reshape(1, self.config.latent_dim))
        state_dist = nn.DiagGaussian(
            decoded_s[:, : self.state_dim], decoded_s[:, self.state_dim :]
        )
        norm_states = (states - self.state_mean) / self.state_std
        recon = state_dist.log_prob(norm_states).sum()

        if self.action_decoder is not None:
            if actions is None:
                raise ValueError("actions required unless state_only=True")
            latent_tiled = nn.concat([upsilon.reshape(1, -1)] * n, axis=0)
            norm_state_t = nn.Tensor((states - self.state_mean) / self.state_std)
            decoded_a = self.action_decoder(nn.concat([latent_tiled, norm_state_t], axis=1))
            action_dist = nn.DiagGaussian(
                decoded_a[:, : self.action_dim], decoded_a[:, self.action_dim :]
            )
            norm_actions = (actions - self.action_mean) / self.action_std
            recon = recon + action_dist.log_prob(norm_actions).sum()

        prior = nn.DiagGaussian(
            nn.Tensor(np.zeros(self.config.latent_dim)),
            nn.Tensor(np.zeros(self.config.latent_dim)),
        )
        kl = posterior.kl(prior)
        # Normalising by N keeps the loss scale independent of the set size
        # without changing the optimum (a positive rescaling of the ELBO).
        return (recon - kl) * (1.0 / n)

    def elbo_batch(
        self,
        sets: Sequence[StateActionSet],
        rng: np.random.Generator,
    ) -> List[nn.Tensor]:
        """Per-set ELBOs for equal-cardinality sets via stacked forwards.

        The batched counterpart of :meth:`elbo`: the K sets run as one
        ``[K, N, d]`` stack through the stacked :meth:`posterior` (one
        encoder forward, one Eq. (6) product over axis −2), one
        ``(K, latent)`` reparameterised draw, one decoder forward per
        decoder and one ``[K]`` KL. Each returned scalar is
        **bit-identical** to ``elbo(states, actions, rng)`` called set by
        set in order: the MLP forwards are batch-length independent
        row-wise, the ``(K, latent)`` draw advances ``rng`` exactly as K
        per-set draws do, and every per-set sum adds the same rows in
        the same order.

        All sets must share one cardinality — :func:`train_sadae` groups
        ragged collections by set size before calling this.
        """
        if not sets:
            return []
        n = sets[0][0].shape[0]
        if any(states.shape[0] != n for states, _ in sets):
            raise ValueError("elbo_batch requires equal-cardinality sets")
        if self.action_decoder is not None and any(a is None for _, a in sets):
            raise ValueError("actions required unless state_only=True")
        k = len(sets)
        latent = self.config.latent_dim
        stacked_states = np.stack(
            [np.asarray(states, dtype=np.float64) for states, _ in sets]
        )  # [K, N, ds]
        stacked_actions = None
        if not self.config.state_only:
            stacked_actions = np.stack(
                [np.asarray(actions, dtype=np.float64) for _, actions in sets]
            )
        posterior = self.posterior(stacked_states, stacked_actions)  # [K, latent]
        upsilon = posterior.rsample(rng)  # [K, latent]: set k's draw in row k

        counts = [n] * k
        norm_states = (stacked_states.reshape(k * n, -1) - self.state_mean) / self.state_std
        decoded_s = self.state_decoder(upsilon)  # [K, 2·ds]
        state_dist = nn.DiagGaussian(
            nn.tile_rows(decoded_s[:, : self.state_dim], counts),
            nn.tile_rows(decoded_s[:, self.state_dim :], counts),
        )
        recon = state_dist.log_prob(norm_states).reshape(k, n).sum(axis=1)  # [K]

        if self.action_decoder is not None:
            latent_tiled = nn.tile_rows(upsilon, counts)  # [K·N, latent]
            decoded_a = self.action_decoder(
                nn.concat([latent_tiled, nn.Tensor(norm_states)], axis=1)
            )
            action_dist = nn.DiagGaussian(
                decoded_a[:, : self.action_dim], decoded_a[:, self.action_dim :]
            )
            norm_actions = (
                stacked_actions.reshape(k * n, -1) - self.action_mean
            ) / self.action_std
            recon = recon + action_dist.log_prob(norm_actions).reshape(k, n).sum(axis=1)

        prior = nn.DiagGaussian(
            nn.Tensor(np.zeros(latent)), nn.Tensor(np.zeros(latent))
        )
        elbos = (recon - posterior.kl(prior)) * (1.0 / n)  # [K]
        return [elbos[index] for index in range(k)]

    # ------------------------------------------------------------------
    # reconstruction / analysis
    # ------------------------------------------------------------------
    def decode_state_distribution(self, upsilon: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """ψ_s = (mean, std) of the decoded state distribution in raw scale."""
        with nn.no_grad():
            decoded = self.state_decoder(
                nn.Tensor(np.asarray(upsilon).reshape(1, self.config.latent_dim))
            ).data[0]
        mean = decoded[: self.state_dim] * self.state_std + self.state_mean
        std = np.exp(np.clip(decoded[self.state_dim :], -10, 4)) * self.state_std
        return mean, std

    def sample_reconstruction(
        self,
        states: np.ndarray,
        actions: Optional[np.ndarray],
        rng: np.random.Generator,
        num_samples: Optional[int] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Draw a synthetic set X̂ ~ p_θ(· | υ) with υ ~ q_κ(υ | X).

        Used for the reconstruction histograms of Fig. 5 / Fig. 8 and the
        dataset-KLD metrics of Fig. 4 / Fig. 9(a).
        """
        n = num_samples or states.shape[0]
        with nn.no_grad():
            posterior = self.posterior(states, actions)
            upsilon = posterior.mean.data + np.exp(posterior.log_std.data) * rng.standard_normal(
                self.config.latent_dim
            )
            mean, std = self.decode_state_distribution(upsilon)
            recon_states = rng.normal(mean, std, size=(n, self.state_dim))
            if self.action_decoder is None:
                return recon_states, None
            norm_recon = (recon_states - self.state_mean) / self.state_std
            latent_tiled = np.tile(upsilon, (n, 1))
            decoded_a = self.action_decoder(
                nn.Tensor(np.concatenate([latent_tiled, norm_recon], axis=1))
            ).data
            a_mean = decoded_a[:, : self.action_dim] * self.action_std + self.action_mean
            a_std = np.exp(np.clip(decoded_a[:, self.action_dim :], -10, 4)) * self.action_std
            recon_actions = rng.normal(a_mean, a_std)
        return recon_states, recon_actions


def _batch_elbos(
    sadae: SADAE,
    sets: Sequence[StateActionSet],
    batch_ids: Sequence[int],
    rng: np.random.Generator,
) -> Dict[int, nn.Tensor]:
    """Per-set ELBOs for one optimisation step, set-batched where possible.

    Sets are grouped by cardinality (in first-appearance order) and each
    equal-cardinality group runs through :meth:`SADAE.elbo_batch`;
    singleton groups take the sequential :meth:`SADAE.elbo`. When all
    sets in the batch share one cardinality the υ-noise draws happen in
    exactly the sequential order, so the step is bit-identical to the
    unbatched loop; ragged batches reorder the draws group by group
    (a different but equally valid sample of the same objective).
    """
    by_cardinality: Dict[int, List[int]] = {}
    for set_id in batch_ids:
        by_cardinality.setdefault(sets[set_id][0].shape[0], []).append(set_id)
    elbos: Dict[int, nn.Tensor] = {}
    for group_ids in by_cardinality.values():
        if len(group_ids) == 1:
            states, actions = sets[group_ids[0]]
            elbos[group_ids[0]] = sadae.elbo(states, actions, rng)
        else:
            group_values = sadae.elbo_batch([sets[i] for i in group_ids], rng)
            for set_id, value in zip(group_ids, group_values):
                elbos[set_id] = value
    return elbos


def train_sadae(
    sadae: SADAE,
    sets: Sequence[StateActionSet],
    epochs: int,
    rng: Optional[np.random.Generator] = None,
    sets_per_step: int = 8,
    fit_normalizer: bool = True,
    callback=None,
    batched: bool = True,
) -> List[float]:
    """Optimise the Theorem 4.1 ELBO over a collection of X sets.

    Returns the per-epoch mean negative-ELBO losses. ``callback(epoch)``
    (if given) runs after every epoch — the benches use it to snapshot
    KLD / PCA trajectories during training.

    With ``batched`` (the default) each step's equal-cardinality sets are
    evaluated through one stacked :meth:`SADAE.elbo_batch` forward
    instead of one :meth:`SADAE.elbo` call per set — see
    :func:`_batch_elbos` for the exact-equivalence conditions. The loss
    of every step is accumulated in the sampled set order either way, so
    given identical parameters an equal-cardinality step's loss is
    bit-identical; across optimizer steps the batched backward sums
    gradients in a different order, letting parameters drift at the last
    ulp (per-epoch losses agree to ≤1e-10, enforced by
    ``tests/core/test_sadae_batched.py`` and ``benchmarks/perf_train.py``).

    A non-finite step loss raises :class:`~repro.rl.TrainingDiverged`
    before that step's update, leaving the parameters finite.
    """
    rng = rng or make_rng(sadae.config.seed)
    if fit_normalizer:
        sadae.fit_normalizer(sets)
    optimizer = nn.Adam(
        sadae.parameters(),
        lr=sadae.config.learning_rate,
        weight_decay=sadae.config.weight_decay,
    )
    losses: List[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(sets))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), sets_per_step):
            batch_ids = order[start : start + sets_per_step]
            optimizer.zero_grad()
            total = None
            if batched:
                elbos = _batch_elbos(sadae, sets, [int(i) for i in batch_ids], rng)
                for set_id in batch_ids:
                    value = -elbos[int(set_id)]
                    total = value if total is None else total + value
            else:
                for set_id in batch_ids:
                    states, actions = sets[set_id]
                    value = -sadae.elbo(states, actions, rng)
                    total = value if total is None else total + value
            loss = total * (1.0 / len(batch_ids))
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(f"SADAE loss is {loss.item()} in epoch {epoch}")
            loss.backward()
            nn.clip_grad_norm(sadae.parameters(), 10.0)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
        if callback is not None:
            callback(epoch)
    return losses
