"""Chitchat RL with clustered sentence actions.

Sentences become mean word vectors; k-means++ clusters over them define a
discrete action space; a GRU Q-network learns, from human-likeness rewards
(+1 for picking the true human reply's cluster, -1 otherwise), to carry a
dialogue. A companion GRU+BatchNorm regressor predicts episode rewards of
(possibly distorted) dialogues from their history prefix.
"""

from .agent import (
    AgentConfig,
    ChatDQNAgent,
    EvalResult,
    ReplayMemory,
    RunReport,
    Transition,
    compute_targets,
    epsilon_at,
    evaluate,
    moving_average,
    select_action,
    train,
)
from .checkpoint import (
    Checkpoint,
    architecture_of,
    load_checkpoint,
    load_qnetwork,
    save_agent_checkpoint,
    save_checkpoint,
)
from .clustering import (
    ClusterModel,
    assign,
    assign_many,
    dialogue_vectors,
    euclidean,
    fit,
    kmeanspp_seed,
    load_cluster_model,
    pca_project,
    save_cluster_model,
)
from .corpus import (
    AGENT,
    ENV,
    Corpus,
    DataSplit,
    Dialogue,
    DistortedDialogue,
    Turn,
    corpus_stats,
    distort_dialogue,
    ingest_personachat,
    load_corpus,
    load_splits,
    sample_distractors,
    save_corpus,
    save_splits,
    split_corpus,
    validate_dialogue,
)
from .embeddings import (
    WordEmbeddingTable,
    embed_corpus,
    embed_texts,
    load_embeddings,
    tokenize,
)
from .environment import (
    CandidateSet,
    DialogueEnv,
    EnvState,
    baseline_bounds,
    episode_reward,
)
from .experiment import (
    ExperimentConfig,
    StageError,
    config_hash,
    emit_learning_curve,
    load_experiment_config,
    reward_study,
    run_experiment,
    save_experiment_config,
)
from .neuralnet import (
    Adam,
    QNetwork,
    RewardRegressor,
    batchnorm_backward,
    batchnorm_forward,
    dropout,
    glorot_uniform,
    gru_backward,
    gru_forward,
    init_gru_params,
    qnet_loss_and_grads,
    regressor_loss_and_grads,
    sigmoid,
)
from .repl import chat_repl
from .reward_predictor import (
    DISTORTION_FRACTIONS,
    HISTORY_LENGTHS,
    PredictorConfig,
    StudyRow,
    distort_corpus,
    history_prefixes,
    history_length_study,
    pearson,
    predict,
    train_predictor,
)
from .stats import ComparisonResult, wilcoxon_signed_rank
from .toydata import make_toy_corpus, make_toy_embeddings, save_embeddings_file

__version__ = "0.1.0"
