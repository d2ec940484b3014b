package com.shape.r12;

public class OtherTest {
    public void testOther() {
    }
}
