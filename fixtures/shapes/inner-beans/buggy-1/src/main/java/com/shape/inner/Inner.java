package com.shape.inner;

public class Inner {
    private final int size;
    private String label;

    public Inner(int size) {
        this.size = size;
    }

    public void setLabel(String value) {
        this.label = value;
    }
}
