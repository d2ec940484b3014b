package com.shape.lifecycle;

public class Worker extends AbstractLifecycle {
    public void run() {
    }
}
