"""Environment interface for multi-user sequential recommendation.

Unlike single-agent RL environments, an SRS environment serves a *group* of
users simultaneously (Sec. III of the paper): one step advances every user by
one recommendation round. States, actions, rewards and dones are therefore
vectorised over the user axis.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from .spaces import Box


class MultiUserEnv:
    """Base class for vectorised multi-user environments.

    Subclasses must set :attr:`observation_space`, :attr:`action_space`,
    :attr:`num_users` and :attr:`horizon`, and implement :meth:`reset` and
    :meth:`step`. Shapes:

    - ``reset() -> states``  with shape ``[num_users, obs_dim]``
    - ``step(actions[num_users, act_dim]) -> (states, rewards, dones, info)``
      with rewards/dones of shape ``[num_users]``.
    """

    observation_space: Box
    action_space: Box
    num_users: int
    horizon: int
    group_id: Any = None

    @property
    def observation_dim(self) -> int:
        return self.observation_space.dim

    @property
    def action_dim(self) -> int:
        return self.action_space.dim

    def reset(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:  # pragma: no cover
        raise NotImplementedError

    def _validate_actions(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.float64)
        if actions.ndim == 1:
            actions = actions[:, None]
        expected = (self.num_users, self.action_dim)
        if actions.shape != expected:
            raise ValueError(f"actions shape {actions.shape} != expected {expected}")
        return actions
