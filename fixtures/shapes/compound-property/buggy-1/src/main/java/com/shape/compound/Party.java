package com.shape.compound;

public class Party {
    private final Address address = new Address();

    public Address getAddress() {
        return address;
    }
}
