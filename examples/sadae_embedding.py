"""SADAE group identification (the paper's RQ1 at a glance).

Trains SADAE on state sets from the LTS3 simulator set, then shows that
the learned latent υ identifies the group parameter of *unseen* groups:
its first principal component orders groups by ω_g, and decoded
reconstructions match the true group distribution.

Run:  python examples/sadae_embedding.py
"""

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import train_sadae
from repro.core.sadae import SADAE, SADAEConfig
from repro.envs import LTSConfig, LTSEnv, MU_C_REAL
from repro.eval import PCA, gaussian_kld
from repro.scenarios import collect_scenario_state_sets, make_scenario


def fresh_states(omega_g: float, num_users: int = 200, seed: int = 50) -> np.ndarray:
    env = LTSEnv(LTSConfig(num_users=num_users, horizon=3, omega_g=omega_g, seed=seed))
    states = [env.reset()]
    rng = np.random.default_rng(seed)
    for _ in range(2):
        step_states, _, _, _ = env.step(rng.random((num_users, 1)))
        states.append(step_states)
    return np.concatenate(states, axis=0)


def main():
    scenario = make_scenario(
        {"family": "lts", "task": "LTS3", "num_users": 150, "horizon": 6, "seed": 0}
    )
    sets = collect_scenario_state_sets(scenario, steps_per_env=5)
    print(f"SADAE corpus: {len(sets)} state sets from "
          f"{scenario.num_train_envs} simulators")

    sadae = SADAE(
        2,
        1,
        SADAEConfig(
            latent_dim=5,
            encoder_hidden=(64, 64),
            decoder_hidden=(64, 64),
            learning_rate=1e-3,
            weight_decay=1e-4,
            state_only=True,
            seed=0,
        ),
    )
    losses = train_sadae(sadae, sets, epochs=60, rng=np.random.default_rng(0))
    print(f"ELBO loss: {losses[0]:.2f} -> {losses[-1]:.2f}")

    # Embed unseen groups — including the held-out ω_g = 0 "real world".
    probe_omegas = [-8.0, -4.0, 0.0, 4.0, 7.0]
    embeddings = np.stack([sadae.embed(fresh_states(w), None) for w in probe_omegas])
    pca = PCA(embeddings)
    projections = pca.transform(embeddings, k=1)[:, 0]

    print("\ngroup identification on unseen groups:")
    print("  omega_g   mu_c   PC1(upsilon)   decoded-vs-true KLD")
    for omega, projection in zip(probe_omegas, projections):
        upsilon = sadae.embed(fresh_states(omega), None)
        mean, std = sadae.decode_state_distribution(upsilon)
        kld = gaussian_kld(mean[1], std[1], MU_C_REAL + omega, 2.0)
        print(f"  {omega:+6.1f}  {MU_C_REAL + omega:5.1f}  {projection:+12.3f}  {kld:12.4f}")

    correlation = np.corrcoef(projections, probe_omegas)[0, 1]
    print(f"\ncorr(PC1, omega_g) = {correlation:+.3f} "
          "(the latent linearly encodes the group parameter, cf. Fig. 12)")


if __name__ == "__main__":
    main()
