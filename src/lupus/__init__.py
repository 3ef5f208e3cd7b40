"""Grey-wolf style swarm optimizers with adaptive curve schedules, a
benchmark harness, and a swarm-trained neural classifier pipeline."""
