package com.shape.r12;

public class EmptyOne {
    public String describe() {
        return "empty";
    }
}
