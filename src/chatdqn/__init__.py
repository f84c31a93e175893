"""Chitchat RL with clustered sentence actions.

Sentences become mean word vectors; k-means++ clusters over them define a
discrete action space; a GRU Q-network learns, from human-likeness rewards
(+1 for picking the true human reply's cluster, -1 otherwise), to carry a
dialogue. A companion GRU+BatchNorm regressor predicts episode rewards of
(possibly distorted) dialogues from their history prefix.

The top level holds the pipeline's entry points: a config, the staged run,
one (embedding size, split) run, checkpoint evaluation and the reward study,
plus the toy-data generators the demos use. Everything else is imported from
its submodule (`chatdqn.agent`, `chatdqn.clustering`, ...).
"""

from .agent import AgentConfig
from .experiment import (
    ExperimentConfig,
    StageError,
    evaluate_checkpoint,
    load_experiment_config,
    reward_study,
    run_experiment,
    save_experiment_config,
    train_single,
)
from .reward_predictor import PredictorConfig
from .toydata import make_toy_corpus, make_toy_embeddings, save_embeddings_file

__all__ = [
    "ExperimentConfig",
    "StageError",
    "load_experiment_config",
    "save_experiment_config",
    "run_experiment",
    "train_single",
    "evaluate_checkpoint",
    "reward_study",
    "AgentConfig",
    "PredictorConfig",
    "make_toy_corpus",
    "make_toy_embeddings",
    "save_embeddings_file",
]

__version__ = "0.1.0"
