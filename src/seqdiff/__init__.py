"""Diffusion-based sequential recommendation at desk scale.

The numeric core (tape autodiff, Adam, seeded sampling) is built from
scratch on numpy arrays; on top of it sit the noise schedules, the forward
corruption / reverse denoising steps, the transformer approximator, the
training and inference pipelines, data preprocessing, and full-ranking
evaluation.
"""

from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config, parse_config
from .data import SequenceDataset, ingest, preprocess, split, synth
from .diffusion import embed_to_x0, q_sample, reverse_step, sample_steps
from .evaluate import PopularityScorer, evaluate, uncertainty_probe
from .infer import build_scorer, infer
from .metrics import EvalReport, metric_single
from .model import Approximator, init_params, mix, step_embedding_batch
from .optim import Adam
from .rng import RngStream
from .schedule import NoiseSchedule, build_schedule, posterior
from .tensor import Tape, Tensor, backward, set_default_dtype
from .train import TrainResult, loss_batch, run_training

__version__ = "0.1.0"

__all__ = [
    "Adam", "Approximator", "EvalReport", "ModelCheckpoint",
    "NoiseSchedule", "PopularityScorer", "RngStream", "SequenceDataset",
    "Tape", "Tensor", "TrainConfig", "TrainResult", "backward",
    "build_schedule", "build_scorer", "embed_to_x0", "evaluate",
    "infer", "ingest", "init_params", "load_checkpoint", "load_config",
    "loss_batch", "metric_single", "mix", "parse_config", "posterior",
    "preprocess", "q_sample", "reverse_step", "run_training",
    "sample_steps", "save_checkpoint", "set_default_dtype", "split",
    "step_embedding_batch", "synth", "uncertainty_probe",
]
