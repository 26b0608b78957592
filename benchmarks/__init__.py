"""The paper's evaluation (§5), one script per figure, table or ablation;
``python -m benchmarks`` writes their numbers to ``results/paper.json``."""
