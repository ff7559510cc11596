"""Cyclical learning-rate schedules with counter-cycled momentum, applied to
a from-scratch clipped-PPO trainer on natively implemented control tasks."""
