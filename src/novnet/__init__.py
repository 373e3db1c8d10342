"""novnet: multiple-class novelty detection at desk scale.

Trains small classification networks with a membership loss and a
dual-branch reference-dataset procedure, detects novel-class inputs by
thresholding the maximum final-layer activation, and evaluates detection
with ROC/AUC. The package exports only `__version__`; each name is
imported from its module: errors, nn_core, losses, data_io, dual_trainer,
novelty_eval, filter_analysis, experiments or cli.
"""

__version__ = "0.1.0"
