package com.shape.lifecycle;

public abstract class AbstractLifecycle {
    public void start() {
    }

    public void stop() {
    }
}
