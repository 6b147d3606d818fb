"""Proximal policy optimization written against plain numpy arrays: a
tanh multi-layer perceptron pair (actor with one categorical head per
action branch, critic with a scalar value head), hand-derived
reverse-mode gradients of the clipped-surrogate loss, an
adaptive-moment optimizer, and generalized advantage estimation.

All agents share one parameter set and feed one rollout buffer. The
buffer owns every agent's open segment and closes it at the time horizon
or at episode end; a segment still open at an update carries over to the
next one, and the open tails are dropped when the run ends.
Steps past TRAIN_FRACTION of the budget are an evaluation phase: the
update loop keeps running with the learning rate exactly 0, so parameters stay
bit-identical while the metrics keep flowing. At lr=0 the optimizer
advances its moments and step counter and skips the parameter write.

An update pass writes every minibatch's gradients into one workspace:
`gradients` returns the `out` dict it is given, and the next call with
the same `out` overwrites it. Rollout and greedy evaluation stack the
agents' observations of a tick and run one actor pass (and, in the
rollout, one critic pass) over them. A non-finite policy output during
rollout or evaluation raises FloatingPointError at the step that produced
it, naming the first agent whose output is not finite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .config import EnvironmentConfig
from .env import ActionTuple, ParkingEnv
from .metrics import (
    DEFAULT_SUMMARY_FREQ,
    TrainingRun,
    evaluate_policy,
    load_model,
    save_model,
)

TRAIN_FRACTION = 0.8  # of the step budget; the rest is the lr=0 phase
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VALUE_LOSS_WEIGHT = 0.5
ADV_NORM_EPS = 1e-8


@dataclass(frozen=True)
class PpoHyper:
    """Optimizer and rollout settings; the defaults are the tuned
    values used by every parking experiment."""

    total_steps: int
    lr: float = 1e-4
    batch: int = 32
    buffer: int = 4096
    horizon: int = 128
    epochs: int = 10
    gamma: float = 0.999
    lam: float = 0.925
    epsilon_clip: float = 0.25
    beta: float = 0.002
    hidden: int = 256
    layers: int = 3

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive: {self.total_steps}")
        for name in ("lr", "beta", "epsilon_clip"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        for name in ("lr", "beta"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} cannot be negative")
        for name in ("batch", "buffer", "horizon", "epochs", "hidden",
                     "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.batch > self.buffer:
            raise ValueError(
                f"batch {self.batch} exceeds buffer size {self.buffer}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1]: {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1]: {self.lam}")
        if self.epsilon_clip <= 0.0:
            raise ValueError(
                f"epsilon_clip must be positive: {self.epsilon_clip}")


def _orthogonal(rng: np.random.Generator, n_in: int, n_out: int,
                gain: float) -> np.ndarray:
    """Orthogonal weight matrix scaled by gain (QR of a gaussian draw,
    sign-fixed so the factorization is unique)."""
    flat = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return np.ascontiguousarray(gain * q[:n_in, :n_out])


class PolicyParams:
    """Named parameter arrays for the actor and critic networks plus
    the optimizer's moment accumulators and step counter, laid out by the
    layer table that ``_set_dims`` returns."""

    def __init__(self, obs_dim: int, branches, hidden: int, layers: int, *,
                 rng: np.random.Generator):
        table = self._set_dims(obs_dim, branches, hidden, layers)
        data: dict[str, np.ndarray] = {}
        for w, b, n_in, n_out, gain in table:
            data[w] = _orthogonal(rng, n_in, n_out, gain)
            data[b] = np.zeros(n_out)
        self.data = data
        self.m = {name: np.zeros_like(arr) for name, arr in data.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in data.items()}
        self.t = 0

    def _set_dims(self, obs_dim: int, branches, hidden: int,
                  layers: int) -> list[tuple[str, str, int, int, float]]:
        """Set the network dimensions and return the layer table: one
        (weight name, bias name, inputs, outputs, init gain) entry per
        layer in draw order, actor.w{i}/b{i}, the critic mirror, one
        actor.head{k}.w/b pair per action branch, critic.value.w/b."""
        self.obs_dim = int(obs_dim)
        self.branches = tuple(int(b) for b in branches)
        self.hidden = int(hidden)
        self.layers = int(layers)
        if self.obs_dim < 1 or self.hidden < 1 or self.layers < 1:
            raise ValueError("network dimensions must be positive")
        if not self.branches or min(self.branches) < 1:
            raise ValueError("action branches must be non-empty and positive")
        h = self.hidden
        table = [(f"{net}.w{i}", f"{net}.b{i}", h if i else self.obs_dim, h,
                  math.sqrt(2.0))
                 for net in ("actor", "critic") for i in range(self.layers)]
        table += [(f"actor.head{k}.w", f"actor.head{k}.b", h, size, 0.01)
                  for k, size in enumerate(self.branches)]
        return table + [("critic.value.w", "critic.value.b", h, 1, 1.0)]

    def checksum(self) -> float:
        """Order-stable digest of the parameter values; used to verify
        the evaluation phase leaves them untouched."""
        return float(sum(float(np.sum(self.data[k])) for k in sorted(self.data)))

    # ---------------------------------------------------------- persistence

    def save(self, path: str) -> None:
        arrays = {f"p.{k}": v for k, v in self.data.items()}
        arrays.update({f"m.{k}": v for k, v in self.m.items()})
        arrays.update({f"v.{k}": v for k, v in self.v.items()})
        arrays["meta"] = np.array(
            [self.obs_dim, self.hidden, self.layers, self.t], dtype=np.int64)
        arrays["branches"] = np.array(self.branches, dtype=np.int64)
        save_model(path, "ppo", arrays)

    @classmethod
    def load(cls, path: str) -> "PolicyParams":
        """The saved policy; its arrays are checked against the layer
        table and nothing is drawn."""
        arrays = load_model(path, "ppo")
        params = cls.__new__(cls)
        try:
            meta = arrays.integers("meta")
            if len(meta) != 4 or min(meta) < 0:
                raise ValueError(f"meta must be 4 integers, none negative, "
                                 f"got {meta}")
            obs_dim, hidden, layers, params.t = meta
            table = params._set_dims(obs_dim, arrays.integers("branches"),
                                     hidden, layers)
            params.data, params.m, params.v = {}, {}, {}
            for w, b, n_in, n_out, _ in table:
                for name, shape in ((w, (n_in, n_out)), (b, (n_out,))):
                    for store, tag in ((params.data, "p"), (params.m, "m"),
                                       (params.v, "v")):
                        store[name] = arrays.reals(f"{tag}.{name}", shape)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        return params


def _mlp_acts(data: dict, prefix: str, layers: int,
              x: np.ndarray) -> list[np.ndarray]:
    """Hidden activations, input first; every hidden layer is tanh."""
    acts = [x]
    h = x
    for i in range(layers):
        h = np.tanh(h @ data[f"{prefix}.w{i}"] + data[f"{prefix}.b{i}"])
        acts.append(h)
    return acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _actor_logps(params: PolicyParams, x: np.ndarray):
    """Per-branch log-probability matrices plus the activation cache."""
    acts = _mlp_acts(params.data, "actor", params.layers, x)
    h = acts[-1]
    logps = []
    for k in range(len(params.branches)):
        logits = h @ params.data[f"actor.head{k}.w"] \
            + params.data[f"actor.head{k}.b"]
        logps.append(_log_softmax(logits))
    return logps, acts


def _critic_values(params: PolicyParams, x: np.ndarray):
    acts = _mlp_acts(params.data, "critic", params.layers, x)
    values = (acts[-1] @ params.data["critic.value.w"]
              + params.data["critic.value.b"]).ravel()
    return values, acts


def _check_finite(where: str, *outputs: np.ndarray) -> None:
    """Raise FloatingPointError unless every log-prob and value array
    is finite. A NaN or infinite weight makes whole log-prob rows NaN,
    which sampling and argmax would otherwise turn into a valid-looking
    action. The outputs hold one row per agent; `where` names the first
    agent whose row is not finite as {agent}."""
    if all(np.isfinite(arr).all() for arr in outputs):
        return
    ok = np.logical_and.reduce([np.isfinite(arr).reshape(len(arr), -1).all(1)
                                for arr in outputs])
    raise FloatingPointError(
        "non-finite policy output " + where.format(agent=int(ok.argmin())))


def gae(rewards, values, terminals, gamma: float, lam: float,
        bootstrap: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Advantages from exponentially weighted TD residuals, and the
    value targets advantages+values. terminals mark steps whose next
    state bootstraps from zero; a segment cut mid-episode passes the
    next state's value estimate as bootstrap."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    terminals = np.asarray(terminals, dtype=bool)
    n = len(rewards)
    if len(values) != n or len(terminals) != n:
        raise ValueError("rewards, values and terminals must align")
    advantages = np.empty(n)
    next_value = float(bootstrap)
    running = 0.0
    for t in range(n - 1, -1, -1):
        cont = 0.0 if terminals[t] else 1.0
        delta = rewards[t] + gamma * next_value * cont - values[t]
        running = delta + gamma * lam * cont * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


class RolloutBuffer:
    """Trajectory steps awaiting an update pass. Each agent's open segment
    collects its steps (observation, action indices per branch, behavior
    log-prob, reward, value) until ``add_segment`` closes it, at episode
    end or at the time horizon. Closing runs ``gae`` over the segment and
    keeps the five series ``drain`` returns: observation, actions,
    log-prob, advantage and return. ``drain`` empties the closed steps
    only; open segments carry over into the next update cycle."""

    def __init__(self, capacity: int, horizon: int):
        if capacity < 1 or horizon < 1:
            raise ValueError("capacity and horizon must be positive")
        self.capacity = int(capacity)
        self.horizon = int(horizon)
        self._open: dict[int, list[tuple]] = {}  # agent -> its open steps
        self._clear()

    def _clear(self) -> None:
        self.obs: list[np.ndarray] = []
        self.actions: list[tuple[int, ...]] = []
        self.logp: list[float] = []
        self.advantages: list[float] = []
        self.returns: list[float] = []

    @property
    def size(self) -> int:
        """Steps in closed segments."""
        return len(self.logp)

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def append(self, agent: int, obs, action: tuple[int, ...], logp: float,
               reward: float, value: float) -> int:
        """Add one step to the agent's open segment; returns its length."""
        seg = self._open.setdefault(agent, [])
        if len(seg) >= self.horizon:
            raise ValueError(
                f"agent {agent}'s open segment already spans the time "
                f"horizon {self.horizon}")
        seg.append((obs, action, logp, reward, value))
        return len(seg)

    def add_segment(self, agent: int, gamma: float, lam: float,
                    terminal: bool = False, bootstrap: float = 0.0) -> None:
        """Close the agent's open segment. A terminal last step bootstraps
        from zero; a segment cut mid-episode passes the next state's value
        estimate as bootstrap."""
        seg = self._open.pop(agent, None)
        if seg is None:
            return
        obs, actions, logp, rewards, values = zip(*seg)
        terminals = [False] * len(seg)
        terminals[-1] = terminal
        adv, ret = gae(rewards, values, terminals, gamma, lam, bootstrap)
        self.obs.extend(obs)
        self.actions.extend(actions)
        self.logp.extend(logp)
        self.advantages.extend(adv.tolist())
        self.returns.extend(ret.tolist())

    def drain(self) -> dict:
        batch = {
            "obs": np.asarray(self.obs, dtype=np.float64),
            "actions": np.asarray(self.actions, dtype=np.int64),
            "logp": np.asarray(self.logp, dtype=np.float64),
            "advantages": np.asarray(self.advantages, dtype=np.float64),
            "returns": np.asarray(self.returns, dtype=np.float64),
        }
        self._clear()
        return batch


def _entropy_terms(logps: list[np.ndarray]) -> list[np.ndarray]:
    # p*log p with the 0*log 0 = 0 convention (underflowed probabilities)
    out = []
    for lp in logps:
        p = np.exp(lp)
        out.append(-np.where(p > 0.0, p * lp, 0.0).sum(axis=1))
    return out


def gradients(params: PolicyParams, obs, actions, logp_old, advantages,
              returns, epsilon_clip: float, beta: float,
              out: dict | None = None) -> tuple[dict, dict]:
    """Exact reverse-mode gradients of the PPO loss for every parameter:
    the negative clipped surrogate, plus VALUE_LOSS_WEIGHT times the value
    MSE, minus beta times the summed branch entropy. tests/test_ppo.py
    holds that loss as ``ppo_loss``, the oracle of the finite-difference
    check.

    The gradients are written into `out`, a dict of arrays shaped like
    `params.data`, which is returned; without one a fresh dict is
    allocated. Every entry is overwritten, so the next call with the
    same `out` replaces the previous gradients."""
    x = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    logp_old = np.asarray(logp_old, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    n = len(x)
    rows = np.arange(n)
    data = params.data
    if out is None:
        out = {name: np.empty_like(arr) for name, arr in data.items()}

    logps, acts = _actor_logps(params, x)
    h = acts[-1]
    logp = sum(lp[rows, actions[:, k]] for k, lp in enumerate(logps))
    ratio = np.exp(logp - logp_old)
    unclipped = ratio * advantages
    clipped_ratio = np.clip(ratio, 1.0 - epsilon_clip, 1.0 + epsilon_clip)
    clipped = clipped_ratio * advantages
    policy_loss = -float(np.minimum(unclipped, clipped).mean())
    entropies = _entropy_terms(logps)
    entropy = float(sum(term.mean() for term in entropies))

    # d(loss)/d(log pi): zero where the clipped branch is the active min,
    # since the clip is flat there
    active = unclipped <= clipped
    g_logp = -(advantages * ratio * active) / n

    d_h = np.zeros_like(h)
    for k, lp in enumerate(logps):
        p = np.exp(lp)
        one_hot = np.zeros_like(p)
        one_hot[rows, actions[:, k]] = 1.0
        d_logits = g_logp[:, None] * (one_hot - p)
        # entropy bonus: d(-beta*mean(H))/d(logits) with
        # dH/dz_j = -p_j(log p_j + H)
        d_logits += (beta / n) * p * (lp + entropies[k][:, None])
        np.matmul(h.T, d_logits, out=out[f"actor.head{k}.w"])
        np.sum(d_logits, axis=0, out=out[f"actor.head{k}.b"])
        d_h += d_logits @ data[f"actor.head{k}.w"].T
    _backward_hidden(params, "actor", acts, d_h, out)

    values, c_acts = _critic_values(params, x)
    value_loss = float(((values - returns) ** 2).mean())
    d_values = VALUE_LOSS_WEIGHT * 2.0 * (values - returns) / n
    ch = c_acts[-1]
    np.matmul(ch.T, d_values[:, None], out=out["critic.value.w"])
    out["critic.value.b"][0] = d_values.sum()
    d_h = d_values[:, None] @ data["critic.value.w"].T
    _backward_hidden(params, "critic", c_acts, d_h, out)

    total = policy_loss + VALUE_LOSS_WEIGHT * value_loss - beta * entropy
    return out, {"loss": total, "policy_loss": policy_loss,
                 "value_loss": value_loss, "entropy": entropy}


def _backward_hidden(params: PolicyParams, prefix: str, acts: list,
                     d_h: np.ndarray, out: dict) -> None:
    """Back-propagate d_h, the gradient at the last hidden activation,
    through the tanh layers into out's weight and bias entries. The
    gradient with respect to the network input is never needed, so the
    first layer stops at its weights."""
    for i in range(params.layers - 1, -1, -1):
        d_pre = d_h * (1.0 - acts[i + 1] ** 2)
        np.matmul(acts[i].T, d_pre, out=out[f"{prefix}.w{i}"])
        np.sum(d_pre, axis=0, out=out[f"{prefix}.b{i}"])
        if i > 0:
            d_h = d_pre @ params.data[f"{prefix}.w{i}"].T


def adam_step(params: PolicyParams, grads: dict, lr: float) -> None:
    """In-place adaptive-moment update. The moments and the step counter
    always advance; with lr=0 the parameter write is skipped, so every
    parameter stays bit-identical (a -0.0 or a non-finite moment
    included)."""
    params.t += 1
    correct1 = 1.0 - ADAM_BETA1 ** params.t
    correct2 = 1.0 - ADAM_BETA2 ** params.t
    for name, g in grads.items():
        m = params.m[name]
        v = params.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        if lr != 0.0:
            params.data[name] -= lr * (m / correct1) \
                / (np.sqrt(v / correct2) + ADAM_EPS)


def ppo_update(params: PolicyParams, buffer: RolloutBuffer,
               hyper: PpoHyper, lr: float,
               rng: np.random.Generator) -> dict:
    """Run `epochs` shuffled passes of minibatch updates over the
    buffer contents, then drain the buffer. Advantages are normalized
    per minibatch. Every minibatch's gradients go into one workspace
    allocated per call. Empty buffer is a no-op."""
    if buffer.size == 0:
        return {"updates": 0}
    batch = buffer.drain()
    count = len(batch["logp"])
    grads = None  # the first minibatch allocates the workspace
    totals = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
    updates = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(count)
        for start in range(0, count, hyper.batch):
            idx = order[start:start + hyper.batch]
            adv = batch["advantages"][idx]
            adv = (adv - adv.mean()) / (adv.std() + ADV_NORM_EPS)
            grads, parts = gradients(
                params, batch["obs"][idx], batch["actions"][idx],
                batch["logp"][idx], adv, batch["returns"][idx],
                hyper.epsilon_clip, hyper.beta, out=grads)
            if not math.isfinite(parts["loss"]):
                raise FloatingPointError(
                    f"non-finite loss {parts['loss']} during update")
            adam_step(params, grads, lr)
            for key in totals:
                totals[key] += parts[key]
            updates += 1
    return {"updates": updates,
            **{key: val / updates for key, val in totals.items()}}


def lr_schedule(step: int, total_steps: int, lr0: float) -> float:
    """Linear decay from lr0 to 0 over the training phase, then exactly
    0 for the evaluation phase."""
    cut = TRAIN_FRACTION * total_steps
    if step >= cut or cut <= 0.0:
        return 0.0
    return lr0 * (1.0 - step / cut)


@dataclass
class PpoTrainResult:
    params: PolicyParams
    rewards: list[float]  # cumulative reward per finished episode
    total_steps: int
    train_boundary_step: int


def _check_params_dims(params: PolicyParams, env: ParkingEnv,
                       obs_dim: int) -> None:
    branches = tuple(env.action_schema.branches)
    if params.obs_dim != obs_dim or params.branches != branches:
        raise ValueError(
            f"policy was built for {params.obs_dim} observation features "
            f"and action branches {params.branches}, but the environment "
            f"produces {obs_dim} and {branches}")


def _sample_branches(logps: list[np.ndarray], offsets,
                     rng: np.random.Generator):
    """Sample one action index per branch; returns the index tuple, the
    env-facing action values, and the joint log-probability."""
    idx = []
    logp = 0.0
    for lp in logps:
        p = np.exp(lp[0])
        u = rng.random() * p.sum()  # guard against rounding below 1.0
        j = min(int(np.searchsorted(np.cumsum(p), u, side="right")),
                len(p) - 1)
        idx.append(j)
        logp += float(lp[0, j])
    values = tuple(j - off for j, off in zip(idx, offsets))
    return tuple(idx), ActionTuple(*values), logp


def train_ppo(cfg: EnvironmentConfig, hyper: PpoHyper,
              out_dir: str | None = None, *, env: ParkingEnv | None = None,
              params: PolicyParams | None = None, seed: int | None = None,
              summary_freq: int = DEFAULT_SUMMARY_FREQ,
              dump_interval: int = 0, log=None) -> PpoTrainResult:
    """Collect rollouts from all agents into one buffer and optimize a
    single shared policy for total_steps agent-steps.

    The training boundary falls at the lr=0 cut. With an output directory
    the run (a ``TrainingRun``) persists the checkpoint, the per-episode
    reward series, the metric store, and run metadata carrying the
    recorded training boundary.
    """
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    if env is None:
        env = ParkingEnv(cfg, rng=rng)
    env.require_obs_mode("normalized", "policy-gradient training")
    obs_dim = len(env.observe(0))
    if params is None:
        params = PolicyParams(obs_dim, env.action_schema.branches,
                              hyper.hidden, hyper.layers, rng=np_rng)
    else:
        _check_params_dims(params, env, obs_dim)
        if (params.hidden, params.layers) != (hyper.hidden, hyper.layers):
            raise ValueError(f"policy has {params.layers} hidden layers of "
                             f"{params.hidden}, the hyperparameters "
                             f"{hyper.layers} of {hyper.hidden}")

    def lr_at(step: int) -> float:
        return lr_schedule(step, hyper.total_steps, hyper.lr)

    with TrainingRun(
            "ppo", cfg, hyper, env, out_dir, seed=seed,
            summary_freq=summary_freq, max_steps=hyper.total_steps,
            dump_interval=dump_interval, log=log,
            rates=lambda step: f"lr {lr_at(step):.2e}") as run:
        n = run.n
        offsets = env.action_schema.offsets
        buffer = RolloutBuffer(hyper.buffer, hyper.horizon)
        cut = TRAIN_FRACTION * hyper.total_steps

        while not run.done:
            # one actor and one critic pass per tick; [:, None, :] makes
            # each agent's row its own batch of one, bit for bit a batch-1
            # call (one (n, d) product would not be)
            step_obs = np.array([env.observe(i) for i in range(n)],
                                dtype=np.float64)
            logps, _ = _actor_logps(params, step_obs[:, None, :])
            step_values, _ = _critic_values(params, step_obs[:, None, :])
            _check_finite(f"for agent {{agent}} at step {run.steps}", *logps,
                          step_values)
            step_idx = []
            step_logp = []
            acts = []
            for i in range(n):  # sampling draws stay in agent order
                idx, action, logp = _sample_branches([lp[i] for lp in logps],
                                                     offsets, np_rng)
                step_idx.append(idx)
                step_logp.append(logp)
                acts.append(action)
            outs = run.step(acts)
            gstep = run.steps
            if gstep >= cut:
                run.end_training()
            for i, out in enumerate(outs):
                steps = buffer.append(i, step_obs[i], step_idx[i],
                                      step_logp[i], out.reward,
                                      float(step_values[i]))
                if out.terminal is not None:
                    buffer.add_segment(i, hyper.gamma, hyper.lam,
                                       terminal=True)
                elif steps >= hyper.horizon:
                    x_next = np.asarray(env.observe(i), dtype=np.float64)
                    values, _ = _critic_values(params, x_next.reshape(1, -1))
                    _check_finite(f"for agent {i}'s bootstrap value at step "
                                  f"{gstep}", values)
                    buffer.add_segment(i, hyper.gamma, hyper.lam,
                                       bootstrap=float(values[0]))
            if buffer.full:
                diag = ppo_update(params, buffer, hyper, lr_at(gstep), np_rng)
                if run.store is not None:
                    record = run.store.record
                    record("Losses/Policy Loss", diag["policy_loss"], gstep)
                    record("Losses/Value Loss", diag["value_loss"], gstep)
                    record("Policy/Entropy", diag["entropy"], gstep)

        if buffer.size > 0:  # final flush of the leftover tail
            ppo_update(params, buffer, hyper, lr_at(run.steps), np_rng)
        run.finish(params, total_episodes=run.episodes)
    return PpoTrainResult(params, run.rewards, run.steps, run.boundary)


def evaluate_ppo(params: PolicyParams, env: ParkingEnv,
                 episodes: int) -> dict:
    """Greedy rollouts (argmax per branch, no learning); returns
    outcome rates and the per-episode rewards."""
    env.require_obs_mode("normalized", "policy evaluation")
    _check_params_dims(params, env, len(env.observe(0)))
    offsets = env.action_schema.offsets
    n = len(env.agents)

    def act(step: int) -> list[ActionTuple]:
        x = np.array([env.observe(i) for i in range(n)], dtype=np.float64)
        logps, _ = _actor_logps(params, x[:, None, :])
        _check_finite(f"for agent {{agent}} at step {step}", *logps)
        best = np.stack([lp[:, 0].argmax(axis=1) for lp in logps], axis=1)
        return [ActionTuple(*row) for row in (best - offsets).tolist()]

    return evaluate_policy(env, episodes, act)
