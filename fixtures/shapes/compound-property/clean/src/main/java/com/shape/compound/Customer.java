package com.shape.compound;

public class Customer extends Party {
    private final Address billing = new Address();
    private String name;

    public Address getBilling() {
        return billing;
    }

    public void setName(String name) {
        this.name = name;
    }
}
