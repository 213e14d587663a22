"""Circular higher-order models: scoring, decoding, and order promotion.

Builds a small ring model by hand, checks the forward score against an
exhaustive sum over every legal state path, and shows that promoting a
trained model to the next order leaves every sequence score unchanged.
"""

import numpy as np
from scipy.special import logsumexp

from suprahmm import (
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    forward_log_likelihood,
    joint_log_prob,
    promote_order,
    sample_sequence,
    sequence_log_prob,
    viterbi_align,
)

# --- the ring ---------------------------------------------------------------
topology = CircularTopology(6)
print("legal moves on a 6-state ring:")
for state in range(6):
    print("  state %d -> %s" % (state, sorted(topology.successors(state))))

# --- a hand-built order-1 model ----------------------------------------------
rng = np.random.default_rng(7)
stay = rng.uniform(0.6, 0.85, size=6)
order1 = HmmModel(
    topology,
    1,
    np.full(6, 1 / 6),
    {1: TransitionTensor(topology, 1, np.column_stack([stay, 1 - stay]))},
    GaussianMixtureEmission(
        np.ones((6, 1)),
        (2.0 * np.arange(6))[:, None, None] * np.ones((6, 1, 2)),
        np.ones((6, 1, 2)),
    ),
)

states, obs = sample_sequence(order1, 12, rng_seed=42)
print("\nsampled path :", states.tolist())
decoded, lp = viterbi_align(order1, obs)
print("decoded path :", decoded.tolist(), " (log prob %.2f)" % lp)
print("paths agree  :", bool(np.array_equal(states, decoded)))

# --- forward really is the sum over all legal paths ---------------------------
def all_legal_paths(n, length):
    paths = [[s] for s in range(n)]
    for _ in range(length - 1):
        paths = [p + [s] for p in paths
                 for s in (p[-1], (p[-1] + 1) % n)]
    return paths

short_obs = obs[:5]
by_sum = logsumexp([joint_log_prob(order1, p, short_obs)
                    for p in all_legal_paths(6, 5)])
by_forward = forward_log_likelihood(order1, short_obs)
print("\nforward %.10f vs exhaustive %.10f (diff %.2e)"
      % (by_forward, by_sum, abs(by_forward - by_sum)))

# --- promotion keeps scores, then adds capacity -------------------------------
order2 = promote_order(order1)
order3 = promote_order(order2)
print("\npromotion chain: order %d -> %d -> %d"
      % (order1.order, order2.order, order3.order))
for model in (order1, order2, order3):
    print("  order %d forward = %.10f"
          % (model.order, forward_log_likelihood(model, obs)))

path = [0, 0, 1, 2, 2, 3]
print("\nscore of %s under order 3: %.4f"
      % (path, sequence_log_prob(order3, path)))
print("an illegal jump scores    :",
      sequence_log_prob(order3, [0, 2, 3, 4, 5, 0]))
