package com.shape.compound;

public class Address {
    private String city;

    public void setCity(String city) {
        this.city = city;
    }
}
