package com.shape.inner;

public class Outer {
    private Inner inner;

    public void setInner(Inner value) {
        this.inner = value;
    }
}
