"""Structure-aware reconstruction objectives for time-series anomaly detection."""
